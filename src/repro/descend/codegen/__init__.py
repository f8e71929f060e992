"""Code generation: Descend → CUDA C++.

Mirrors Section 5 of the paper: GPU functions become ``__global__`` CUDA
kernels, host functions become C++ functions using the CUDA runtime API,
``sched`` disappears (its binders become block/thread indices), views are
compiled into raw index arithmetic by processing the applied views in
reverse order, and static information such as memory annotations is dropped.

* :mod:`repro.descend.codegen.index_expr` — symbolic C index expressions (the
  value domain plugged into the view-indexing engine),
* :mod:`repro.descend.codegen.kernel_gen` — kernel (GPU function) generation,
* :mod:`repro.descend.codegen.host_gen` — host function generation,
* :mod:`repro.descend.codegen.compiler` — whole-module assembly into a
  :class:`~repro.descend.cuda_module.CudaModule` (defined outside this
  package, so unpickling a stored module does not import the generator).
"""

from repro.descend.codegen.compiler import generate_cuda
from repro.descend.codegen.index_expr import CExpr, csym, cconst
from repro.descend.cuda_module import CudaModule

__all__ = ["CudaModule", "generate_cuda", "CExpr", "csym", "cconst"]
