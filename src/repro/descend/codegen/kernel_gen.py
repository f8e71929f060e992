"""Generating CUDA kernels from GPU Descend functions.

The translation follows Section 5 of the paper:

* a GPU grid function becomes a ``__global__`` kernel,
* ``sched`` does not appear in the generated code: its binder becomes the
  block/thread index of the executing thread,
* ``split`` becomes a branch on the block/thread index,
* selections and views over place expressions are lowered to raw indices by
  replaying the view chain with symbolic C index expressions (in reverse
  order, each view transforming the index produced so far),
* ``sync`` becomes ``__syncthreads()``, shared-memory allocations become
  ``__shared__`` arrays, and memory/execution annotations are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro.descend.ast import terms as T
from repro.descend.ast.dims import DimName
from repro.descend.ast.exec_level import GpuGridLevel
from repro.descend.ast.places import PDeref, PIdx, PProj, PSelect, PVar, PView, PlaceExpr
from repro.descend.ast.types import (
    ArrayType,
    ArrayViewType,
    DataType,
    RefType,
    ScalarType,
)
from repro.descend.codegen.index_expr import CExpr, as_cexpr, cconst, csym, nat_to_cexpr
from repro.descend.codegen.writer import SourceWriter
from repro.descend.nat import Nat
from repro.descend.views.indexing import LogicalArray, LogicalPair, bind_view
from repro.errors import DescendCodegenError

_SCALAR_CTYPES = {
    "f64": "double",
    "f32": "float",
    "i32": "int",
    "i64": "long long",
    "u32": "unsigned int",
    "bool": "bool",
    "()": "void",
}

_BLOCK_IDX = {DimName.X: "blockIdx.x", DimName.Y: "blockIdx.y", DimName.Z: "blockIdx.z"}
_THREAD_IDX = {DimName.X: "threadIdx.x", DimName.Y: "threadIdx.y", DimName.Z: "threadIdx.z"}


def scalar_ctype(ty: DataType) -> str:
    current = ty
    while isinstance(current, (ArrayType, ArrayViewType)):
        current = current.elem
    if isinstance(current, ScalarType) and current.name in _SCALAR_CTYPES:
        return _SCALAR_CTYPES[current.name]
    raise DescendCodegenError(f"type `{ty}` has no CUDA representation")


@dataclass
class BufferInfo:
    """What the kernel generator knows about an array-backed variable."""

    c_name: str
    shape: Tuple[CExpr, ...]
    ctype: str
    writable: bool = True


class KernelGenerator:
    """Generates the CUDA C++ source of one GPU Descend function."""

    def __init__(self, fun_def: T.FunDef, nat_env: Optional[Dict[str, int]] = None) -> None:
        self.fun_def = fun_def
        self.nat_env = dict(nat_env or {})
        level = fun_def.exec_spec.level
        if not isinstance(level, GpuGridLevel):
            raise DescendCodegenError(f"`{fun_def.name}` is not a GPU grid function")
        self.level = level
        self.writer = SourceWriter()
        self.buffers: Dict[str, BufferInfo] = {}
        self.scalars: Dict[str, str] = {}
        self.binder_coords: Dict[str, Tuple[CExpr, ...]] = {}
        self._shared_counter = 0
        # split windows: dimension -> origin offset (lo) expression
        self._block_origin: Dict[DimName, CExpr] = {name: cconst(0) for name in level.blocks.names}
        self._thread_origin: Dict[DimName, CExpr] = {name: cconst(0) for name in level.threads.names}
        self._pending_blocks = set(level.blocks.names)
        self._pending_threads = set(level.threads.names)

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------

    def generate(self) -> str:
        params = ", ".join(self._param_decl(p) for p in self.fun_def.params)
        header = f"__global__ void {self.fun_def.name}({params})"
        self.writer.comment(f"generated from Descend function `{self.fun_def.name}`")
        self.writer.comment(f"execution resource: {self.fun_def.exec_spec.describe()}")
        self.writer.open_block(header)
        self._emit_block(self.fun_def.body)
        self.writer.close_block()
        return self.writer.source()

    def _param_decl(self, param: T.FunParam) -> str:
        ty = param.ty
        if isinstance(ty, RefType):
            referent = ty.referent
            ctype = scalar_ctype(referent)
            if isinstance(referent, (ArrayType, ArrayViewType)):
                shape = tuple(nat_to_cexpr(size, self.nat_env) for size in referent.shape())
                self.buffers[param.name] = BufferInfo(param.name, shape, ctype, writable=ty.uniq)
                qualifier = "" if ty.uniq else "const "
                return f"{qualifier}{ctype} *{param.name}"
            self.scalars[param.name] = ctype
            qualifier = "" if ty.uniq else "const "
            return f"{qualifier}{ctype} *{param.name}"
        ctype = scalar_ctype(ty)
        self.scalars[param.name] = ctype
        return f"{ctype} {param.name}"

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def _emit_block(self, block: T.Block) -> None:
        for stmt in block.stmts:
            self._emit_stmt(stmt)

    def _emit_stmt(self, term: T.Term) -> None:
        if isinstance(term, T.Block):
            self.writer.open_block("")
            self._emit_block(term)
            self.writer.close_block()
            return
        if isinstance(term, T.Sched):
            self._emit_sched(term)
            return
        if isinstance(term, T.SplitExec):
            self._emit_split(term)
            return
        if isinstance(term, T.Sync):
            self.writer.line("__syncthreads();")
            return
        if isinstance(term, T.LetTerm):
            self._emit_let(term)
            return
        if isinstance(term, T.Assign):
            target = self._place_lvalue(term.place)
            value = self._expr(term.value)
            self.writer.line(f"{target} = {value};")
            return
        if isinstance(term, T.ForNat):
            lo = nat_to_cexpr(term.lo, self.nat_env).render()
            hi = nat_to_cexpr(term.hi, self.nat_env).render()
            self.writer.open_block(
                f"for (int {term.var} = {lo}; {term.var} < {hi}; ++{term.var})"
            )
            self._emit_block(term.body)
            self.writer.close_block()
            return
        if isinstance(term, T.IfTerm):
            self.writer.open_block(f"if ({self._expr(term.cond)})")
            self._emit_block(term.then)
            if term.otherwise is not None:
                self.writer.close_block("} else {")
                self.writer._level += 1  # reopen at same depth
                self._emit_block(term.otherwise)
            self.writer.close_block()
            return
        if isinstance(term, T.ForEach):
            raise DescendCodegenError("`for ... in collection` is not supported in GPU code generation")
        # expression statement
        self.writer.line(f"{self._expr(term)};")

    def _emit_sched(self, term: T.Sched) -> None:
        over_blocks = bool(self._pending_blocks)
        index_table = _BLOCK_IDX if over_blocks else _THREAD_IDX
        origins = self._block_origin if over_blocks else self._thread_origin
        pending = self._pending_blocks if over_blocks else self._pending_threads

        coords = []
        for dim in term.dims:
            if dim not in pending:
                raise DescendCodegenError(
                    f"dimension {dim} is not schedulable at this point in `{self.fun_def.name}`"
                )
            coords.append(csym(index_table[dim]) - origins[dim])
        self.binder_coords[term.binder] = tuple(coords)
        removed = list(term.dims)
        for dim in removed:
            pending.discard(dim)
        dims_text = ",".join(str(d) for d in term.dims)
        self.writer.comment(f"sched({dims_text}) {term.binder} in {term.exec_name}")
        self._emit_block(term.body)
        for dim in removed:
            pending.add(dim)
        self.binder_coords.pop(term.binder, None)

    def _emit_split(self, term: T.SplitExec) -> None:
        over_blocks = term.dim in self._pending_blocks
        index_table = _BLOCK_IDX if over_blocks else _THREAD_IDX
        origins = self._block_origin if over_blocks else self._thread_origin
        origin = origins[term.dim]
        pos = nat_to_cexpr(term.pos, self.nat_env)
        relative = csym(index_table[term.dim]) - origin
        self.writer.open_block(f"if ({relative.render()} < {pos.render()})")
        self._emit_block(term.first_body)
        self.writer.close_block("} else {")
        self.writer._level += 1
        origins[term.dim] = origin + pos
        self._emit_block(term.second_body)
        origins[term.dim] = origin
        self.writer.close_block()

    def _emit_let(self, term: T.LetTerm) -> None:
        init = term.init
        if isinstance(init, T.Alloc):
            shape = tuple(nat_to_cexpr(size, self.nat_env) for size in _alloc_shape(init.ty))
            ctype = scalar_ctype(init.ty)
            total = cconst(1)
            for extent in shape:
                total = total * extent
            qualifier = "__shared__ " if str(init.mem) == "gpu.shared" else ""
            self.writer.line(f"{qualifier}{ctype} {term.name}[{total.render()}];")
            self.buffers[term.name] = BufferInfo(term.name, shape, ctype)
            return
        value = self._expr(init)
        ctype = self._infer_ctype(init)
        self.scalars[term.name] = ctype
        self.writer.line(f"{ctype} {term.name} = {value};")

    def _infer_ctype(self, term: T.Term) -> str:
        if isinstance(term, T.Lit):
            if isinstance(term.ty, ScalarType) and term.ty.name in _SCALAR_CTYPES:
                return _SCALAR_CTYPES[term.ty.name]
        if isinstance(term, T.NatTerm):
            return "int"
        return "auto"

    # ------------------------------------------------------------------
    # expressions and places
    # ------------------------------------------------------------------

    def _expr(self, term: T.Term) -> str:
        if isinstance(term, T.Lit):
            return _literal(term)
        if isinstance(term, T.NatTerm):
            return nat_to_cexpr(term.nat, self.nat_env).render()
        if isinstance(term, T.PlaceTerm):
            return self._place_lvalue(term.place)
        if isinstance(term, T.BinaryOp):
            return f"({self._expr(term.lhs)} {term.op} {self._expr(term.rhs)})"
        if isinstance(term, T.UnaryOp):
            return f"({term.op}{self._expr(term.operand)})"
        if isinstance(term, T.Borrow):
            return self._place_lvalue(term.place)
        raise DescendCodegenError(f"cannot generate CUDA for expression {term}")

    def _place_lvalue(self, place: PlaceExpr) -> str:
        parts = place.parts()
        root = parts[0]
        assert isinstance(root, PVar)
        if root.name in self.scalars and root.name not in self.buffers:
            if len([p for p in parts[1:] if not isinstance(p, PDeref)]) == 0:
                return root.name
            raise DescendCodegenError(f"cannot index scalar `{root.name}`")
        if root.name not in self.buffers:
            raise DescendCodegenError(f"unknown variable `{root.name}` in code generation")
        info = self.buffers[root.name]

        current: Union[LogicalArray, LogicalPair] = LogicalArray.root(info.shape)
        for part in parts[1:]:
            if isinstance(part, PDeref):
                continue
            if isinstance(part, PView):
                if isinstance(current, LogicalPair):
                    raise DescendCodegenError("`split` must be followed by `.fst`/`.snd`")
                bound = bind_view(part.ref, resolver=lambda nat: nat_to_cexpr(nat, self.nat_env))
                current = current.apply_view(bound)
                continue
            if isinstance(part, PProj):
                if isinstance(current, LogicalPair):
                    current = current.project(part.index)
                    continue
                raise DescendCodegenError("tuple projections are not supported in kernels")
            if isinstance(current, LogicalPair):
                raise DescendCodegenError("`split` must be followed by `.fst`/`.snd`")
            if isinstance(part, PSelect):
                coords = self.binder_coords.get(part.exec_var)
                if coords is None:
                    raise DescendCodegenError(
                        f"`{part.exec_var}` is not a scheduled execution resource"
                    )
                current = current.select(coords)
                continue
            if isinstance(part, PIdx):
                if isinstance(part.index, Nat):
                    index: CExpr = nat_to_cexpr(part.index, self.nat_env)
                else:
                    index = csym(self._expr(part.index))
                current = current.index(index)
                continue
            raise DescendCodegenError(f"unsupported place part {part}")

        if isinstance(current, LogicalPair):
            raise DescendCodegenError("`split` must be followed by `.fst`/`.snd`")
        if not current.is_scalar():
            raise DescendCodegenError(
                f"place `{place}` does not denote a single element; arrays cannot be "
                "copied wholesale in generated code"
            )
        offset = current.flat_offset(())
        return f"{info.c_name}[{as_cexpr(offset).render()}]"


def _alloc_shape(ty: DataType) -> Tuple[Nat, ...]:
    if isinstance(ty, (ArrayType, ArrayViewType)):
        return ty.shape()
    raise DescendCodegenError(f"cannot allocate non-array type `{ty}` in shared/private memory")


def _literal(term: T.Lit) -> str:
    if isinstance(term.ty, ScalarType):
        if term.ty.name == "f64":
            text = repr(float(term.value))
            return text if "." in text or "e" in text else text + ".0"
        if term.ty.name == "f32":
            return f"{float(term.value)}f"
        if term.ty.name == "bool":
            return "true" if term.value else "false"
    return str(term.value)


def generate_kernel(fun_def: T.FunDef, nat_env: Optional[Dict[str, int]] = None) -> str:
    """Generate the CUDA source of one GPU Descend function."""
    return KernelGenerator(fun_def, nat_env).generate()
