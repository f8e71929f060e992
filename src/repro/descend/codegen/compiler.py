"""Whole-module CUDA code generation.

Modules are generated through the staged driver's ``lower.cuda`` pass
(:meth:`repro.descend.driver.CompileSession.cuda_module`), which caches them
per ``(program, nat_env)`` content key; :func:`generate_cuda` stays the
uncached primitive.  :meth:`CudaModule.fingerprint`
(:mod:`repro.descend.cuda_module`) digests the emitted source so callers (the
compile-time benchmark, tests) can assert that cached artifacts are
byte-identical to cold ones.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.descend.ast import terms as T
from repro.descend.codegen.host_gen import generate_host_function
from repro.descend.codegen.kernel_gen import generate_kernel
from repro.descend.cuda_module import CudaModule


def generate_cuda(program: T.Program, nat_env: Optional[Dict[str, int]] = None) -> CudaModule:
    """Translate a Descend program into CUDA C++ source code."""
    module = CudaModule()
    for fun_def in program.gpu_functions():
        module.kernels[fun_def.name] = generate_kernel(fun_def, nat_env)
    for fun_def in program.cpu_functions():
        module.host_functions[fun_def.name] = generate_host_function(fun_def, program)
    return module
