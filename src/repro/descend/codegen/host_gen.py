"""Generating host-side C++ from CPU Descend functions.

CPU functions manage memory and launch kernels; the generator maps the
prelude operations to the CUDA runtime API:

* ``GpuGlobal::alloc_copy(&x)`` → ``cudaMalloc`` + ``cudaMemcpy(..., cudaMemcpyHostToDevice)``
* ``copy_mem_to_host(dst, src)`` → ``cudaMemcpy(..., cudaMemcpyDeviceToHost)``
* ``f::<<<G, B>>>(args)``        → ``f<<<dim3(...), dim3(...)>>>(args)`` + ``cudaDeviceSynchronize()``

The generated host code intentionally keeps the structure of the Descend
source; it is meant to be read next to it (and golden-tested), not to be a
production CUDA host framework.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.descend.ast import terms as T
from repro.descend.ast.dims import Dim, DimName
from repro.descend.ast.places import PlaceExpr
from repro.descend.ast.types import ArrayType, ArrayViewType, RefType
from repro.descend.codegen.index_expr import nat_to_cexpr
from repro.descend.codegen.kernel_gen import scalar_ctype
from repro.descend.codegen.writer import SourceWriter
from repro.errors import DescendCodegenError


class HostGenerator:
    """Generates C++ host code for one CPU Descend function."""

    def __init__(self, fun_def: T.FunDef, program: T.Program) -> None:
        self.fun_def = fun_def
        self.program = program
        self.writer = SourceWriter()
        #: variable -> (element C type, element-count expression as C source)
        self.arrays: Dict[str, Tuple[str, str]] = {}

    def generate(self) -> str:
        params = ", ".join(self._param_decl(p) for p in self.fun_def.params)
        self.writer.comment(f"generated from Descend host function `{self.fun_def.name}`")
        self.writer.open_block(f"void {self.fun_def.name}({params})")
        self._emit_block(self.fun_def.body)
        self.writer.close_block()
        return self.writer.source()

    def _param_decl(self, param: T.FunParam) -> str:
        ty = param.ty
        if isinstance(ty, RefType) and isinstance(ty.referent, (ArrayType, ArrayViewType)):
            ctype = scalar_ctype(ty.referent)
            count = nat_to_cexpr(ty.referent.shape()[0], {}).render()
            total = " * ".join(nat_to_cexpr(s, {}).render() for s in ty.referent.shape())
            self.arrays[param.name] = (ctype, total or count)
            qualifier = "" if ty.uniq else "const "
            return f"{qualifier}{ctype} *{param.name}"
        if isinstance(ty, RefType):
            return f"{scalar_ctype(ty.referent)} *{param.name}"
        return f"{scalar_ctype(ty)} {param.name}"

    # -- statements ----------------------------------------------------------------
    def _emit_block(self, block: T.Block) -> None:
        for stmt in block.stmts:
            self._emit_stmt(stmt)

    def _emit_stmt(self, term: T.Term) -> None:
        if isinstance(term, T.LetTerm):
            self._emit_let(term)
            return
        if isinstance(term, T.FnApp):
            self._emit_builtin_call(term)
            return
        if isinstance(term, T.KernelLaunch):
            self._emit_launch(term)
            return
        if isinstance(term, T.Block):
            self._emit_block(term)
            return
        raise DescendCodegenError(f"unsupported host statement {term}")

    def _emit_let(self, term: T.LetTerm) -> None:
        init = term.init
        if isinstance(init, T.FnApp) and init.name == "GpuGlobal::alloc_copy":
            source_name, ctype, count = self._array_arg(init.args[0])
            self.writer.line(f"{ctype} *{term.name};")
            self.writer.line(f"cudaMalloc(&{term.name}, {count} * sizeof({ctype}));")
            self.writer.line(
                f"cudaMemcpy({term.name}, {source_name}, {count} * sizeof({ctype}), "
                "cudaMemcpyHostToDevice);"
            )
            self.arrays[term.name] = (ctype, count)
            return
        if isinstance(init, T.FnApp) and init.name == "GpuGlobal::alloc":
            ty = init.ty_args[0]
            ctype = scalar_ctype(ty)
            count = " * ".join(nat_to_cexpr(s, {}).render() for s in ty.shape())
            self.writer.line(f"{ctype} *{term.name};")
            self.writer.line(f"cudaMalloc(&{term.name}, {count} * sizeof({ctype}));")
            self.arrays[term.name] = (ctype, count)
            return
        if isinstance(init, T.FnApp) and init.name == "CpuHeap::new":
            arg = init.args[0]
            if isinstance(arg, T.ArrayInit):
                count = nat_to_cexpr(arg.size, {}).render()
                ctype = "double"
                self.writer.line(f"{ctype} *{term.name} = new {ctype}[{count}];")
                self.writer.line(
                    f"std::fill({term.name}, {term.name} + {count}, "
                    f"{self._host_literal(arg.value)});"
                )
                self.arrays[term.name] = (ctype, count)
                return
        raise DescendCodegenError(f"unsupported host let binding `{term}`")

    def _emit_builtin_call(self, term: T.FnApp) -> None:
        if term.name in ("copy_mem_to_host", "copy_mem_to_gpu"):
            dst_name, ctype, count = self._array_arg(term.args[0])
            src_name, _, _ = self._array_arg(term.args[1])
            direction = (
                "cudaMemcpyDeviceToHost" if term.name == "copy_mem_to_host" else "cudaMemcpyHostToDevice"
            )
            self.writer.line(
                f"cudaMemcpy({dst_name}, {src_name}, {count} * sizeof({ctype}), {direction});"
            )
            return
        raise DescendCodegenError(f"unsupported host call `{term.name}`")

    def _emit_launch(self, term: T.KernelLaunch) -> None:
        grid = _dim3(term.grid_dim)
        block = _dim3(term.block_dim)
        args = ", ".join(self._array_arg(arg)[0] for arg in term.args)
        self.writer.line(f"{term.name}<<<dim3{grid}, dim3{block}>>>({args});")
        self.writer.line("cudaDeviceSynchronize();")

    # -- helpers --------------------------------------------------------------------
    def _array_arg(self, term: T.Term) -> Tuple[str, str, str]:
        """Resolve a borrow/place argument to (C name, element C type, count expr)."""
        place: Optional[PlaceExpr] = None
        if isinstance(term, T.Borrow):
            place = term.place
        elif isinstance(term, T.PlaceTerm):
            place = term.place
        if place is None:
            raise DescendCodegenError(f"unsupported host argument {term}")
        name = place.root().name
        if name not in self.arrays:
            raise DescendCodegenError(f"`{name}` is not an array known to the host generator")
        ctype, count = self.arrays[name]
        return name, ctype, count

    @staticmethod
    def _host_literal(term: T.Term) -> str:
        if isinstance(term, T.Lit):
            return str(term.value)
        raise DescendCodegenError("array initialisers must be literals")


def _dim3(dim: Dim) -> str:
    sizes = {name: nat_to_cexpr(size, {}).render() for name, size in dim.entries}
    x = sizes.get(DimName.X, "1")
    y = sizes.get(DimName.Y, "1")
    z = sizes.get(DimName.Z, "1")
    return f"({x}, {y}, {z})"


def generate_host_function(fun_def: T.FunDef, program: T.Program) -> str:
    """Generate the C++ host source of one CPU Descend function."""
    return HostGenerator(fun_def, program).generate()
