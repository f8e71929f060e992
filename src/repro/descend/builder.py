"""A programmatic builder API for Descend programs.

The surface parser (:mod:`repro.descend.frontend`) is the most faithful way
to write Descend, but benchmarks, tests and generated programs are often more
convenient to assemble directly as ASTs.  This module provides a compact
builder vocabulary:

>>> from repro.descend.builder import *
>>> scale = fun(
...     "scale_vec",
...     [param("vec", uniq_ref(GPU_GLOBAL, array(F64, 1024)))],
...     gpu_grid_spec("grid", dim_x(32), dim_x(32)),
...     body(
...         sched("X", "block", "grid",
...               sched("X", "thread", "block",
...                     assign(var("vec").view("group", 32).select("block").select("thread"),
...                            mul(read(var("vec").view("group", 32).select("block").select("thread")),
...                                lit_f64(3.0))))),
...     ),
... )
>>> prog = program(scale)
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

from repro.descend.ast import terms as T
from repro.descend.ast.dims import (
    Dim,
    DimName,
    dim_x,
    dim_xy,
    dim_xyz,
    dim_y,
    dim_z,
    parse_dim_name,
)
from repro.descend.ast.exec_level import (
    CpuThreadLevel,
    ExecSpec,
    GpuBlockLevel,
    GpuGridLevel,
    GpuThreadLevel,
)
from repro.descend.ast.memory import CPU_MEM, GPU_GLOBAL, GPU_LOCAL, GPU_SHARED, Memory
from repro.descend.ast.places import PlaceExpr, PVar
from repro.descend.ast.types import (
    ArrayType,
    ArrayViewType,
    AtType,
    BOOL,
    DataType,
    F32,
    F64,
    GenericParam,
    I32,
    I64,
    Kind,
    RefType,
    ScalarType,
    TupleType,
    U32,
    UNIT,
    WhereClause,
    array,
    array2d,
    boxed,
    shared_ref,
    uniq_ref,
    view_of,
)
from repro.descend.ast.views import ViewRef
from repro.descend.nat import NatLike, as_nat

__all__ = [
    # dims / memories / types re-exported for convenience
    "Dim", "DimName", "dim_x", "dim_y", "dim_z", "dim_xy", "dim_xyz",
    "CPU_MEM", "GPU_GLOBAL", "GPU_SHARED", "GPU_LOCAL",
    "ArrayType", "ArrayViewType", "AtType", "RefType", "TupleType", "ScalarType",
    "BOOL", "F32", "F64", "I32", "I64", "U32", "UNIT",
    "array", "array2d", "view_of", "boxed", "shared_ref", "uniq_ref",
    "GenericParam", "Kind", "WhereClause", "ViewRef",
    # builders
    "var", "read", "lit_i32", "lit_f32", "lit_f64", "lit_bool", "nat_term",
    "add", "sub", "mul", "div", "rem", "lt", "le", "gt", "ge", "eq", "ne", "neg",
    "borrow", "uniq_borrow", "let", "assign", "body", "block", "if_", "for_nat",
    "for_each", "sched", "split_exec", "sync", "alloc_shared", "alloc_local",
    "array_init", "call", "launch", "cpu_heap_new", "gpu_alloc_copy",
    "copy_to_host", "copy_to_gpu",
    "param", "fun", "program", "gpu_grid_spec", "gpu_block_spec", "gpu_thread_spec",
    "cpu_spec", "nat_param", "dty_param", "mem_param",
]


TermLike = Union[T.Term, PlaceExpr, int, float, bool]


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


def var(name: str) -> PVar:
    """A place-expression root variable."""
    return PVar(name)


def as_term(value: TermLike) -> T.Term:
    """Coerce builder-friendly Python values into terms."""
    if isinstance(value, T.Term):
        return value
    if isinstance(value, PlaceExpr):
        return T.PlaceTerm(value)
    if isinstance(value, bool):
        return T.Lit(value, BOOL)
    if isinstance(value, int):
        return T.Lit(value, I32)
    if isinstance(value, float):
        return T.Lit(value, F64)
    raise TypeError(f"cannot interpret {value!r} as a Descend term")


def read(place: PlaceExpr) -> T.PlaceTerm:
    return T.PlaceTerm(place)


def lit_i32(value: int) -> T.Lit:
    return T.Lit(int(value), I32)


def lit_f32(value: float) -> T.Lit:
    return T.Lit(float(value), F32)


def lit_f64(value: float) -> T.Lit:
    return T.Lit(float(value), F64)


def lit_bool(value: bool) -> T.Lit:
    return T.Lit(bool(value), BOOL)


def nat_term(value: NatLike) -> T.NatTerm:
    return T.NatTerm(as_nat(value))


def _binop(op: str, lhs: TermLike, rhs: TermLike) -> T.BinaryOp:
    return T.BinaryOp(op, as_term(lhs), as_term(rhs))


def add(lhs: TermLike, rhs: TermLike) -> T.BinaryOp:
    return _binop("+", lhs, rhs)


def sub(lhs: TermLike, rhs: TermLike) -> T.BinaryOp:
    return _binop("-", lhs, rhs)


def mul(lhs: TermLike, rhs: TermLike) -> T.BinaryOp:
    return _binop("*", lhs, rhs)


def div(lhs: TermLike, rhs: TermLike) -> T.BinaryOp:
    return _binop("/", lhs, rhs)


def rem(lhs: TermLike, rhs: TermLike) -> T.BinaryOp:
    return _binop("%", lhs, rhs)


def lt(lhs: TermLike, rhs: TermLike) -> T.BinaryOp:
    return _binop("<", lhs, rhs)


def le(lhs: TermLike, rhs: TermLike) -> T.BinaryOp:
    return _binop("<=", lhs, rhs)


def gt(lhs: TermLike, rhs: TermLike) -> T.BinaryOp:
    return _binop(">", lhs, rhs)


def ge(lhs: TermLike, rhs: TermLike) -> T.BinaryOp:
    return _binop(">=", lhs, rhs)


def eq(lhs: TermLike, rhs: TermLike) -> T.BinaryOp:
    return _binop("==", lhs, rhs)


def ne(lhs: TermLike, rhs: TermLike) -> T.BinaryOp:
    return _binop("!=", lhs, rhs)


def neg(operand: TermLike) -> T.UnaryOp:
    return T.UnaryOp("-", as_term(operand))


def borrow(place: PlaceExpr) -> T.Borrow:
    return T.Borrow(False, place)


def uniq_borrow(place: PlaceExpr) -> T.Borrow:
    return T.Borrow(True, place)


def let(name: str, init: TermLike, ty: Optional[DataType] = None) -> T.LetTerm:
    return T.LetTerm(name, ty, as_term(init))


def assign(place: PlaceExpr, value: TermLike) -> T.Assign:
    return T.Assign(place, as_term(value))


def block(*stmts: TermLike) -> T.Block:
    return T.Block(tuple(as_term(s) for s in stmts))


#: Alias for the body of functions/loops (reads nicer at call sites).
body = block


def if_(cond: TermLike, then: T.Block, otherwise: Optional[T.Block] = None) -> T.IfTerm:
    return T.IfTerm(as_term(cond), then, otherwise)


def for_nat(variable: str, lo: NatLike, hi: NatLike, *stmts: TermLike) -> T.ForNat:
    return T.ForNat(variable, as_nat(lo), as_nat(hi), block(*stmts))


def for_each(variable: str, collection: TermLike, *stmts: TermLike) -> T.ForEach:
    return T.ForEach(variable, as_term(collection), block(*stmts))


def _parse_dims(dims: Union[str, Sequence[DimName]]) -> Tuple[DimName, ...]:
    if isinstance(dims, str):
        return tuple(parse_dim_name(char) for char in dims.replace(",", ""))
    return tuple(dims)


def sched(dims: Union[str, Sequence[DimName]], binder: str, exec_name: str, *stmts: TermLike) -> T.Sched:
    return T.Sched(_parse_dims(dims), binder, exec_name, block(*stmts))


def split_exec(
    dim: Union[str, DimName],
    exec_name: str,
    pos: NatLike,
    first: Tuple[str, T.Block],
    second: Tuple[str, T.Block],
) -> T.SplitExec:
    dim_name = parse_dim_name(dim) if isinstance(dim, str) else dim
    return T.SplitExec(
        dim_name,
        exec_name,
        as_nat(pos),
        first[0],
        first[1],
        second[0],
        second[1],
    )


def sync() -> T.Sync:
    return T.Sync()


def alloc_shared(ty: DataType) -> T.Alloc:
    return T.Alloc(GPU_SHARED, ty)


def alloc_local(ty: DataType) -> T.Alloc:
    return T.Alloc(GPU_LOCAL, ty)


def array_init(value: TermLike, size: NatLike) -> T.ArrayInit:
    return T.ArrayInit(as_term(value), as_nat(size))


def call(
    name: str,
    *args: TermLike,
    nat_args: Sequence[NatLike] = (),
    mem_args: Sequence[Memory] = (),
    ty_args: Sequence[DataType] = (),
) -> T.FnApp:
    return T.FnApp(
        name,
        tuple(as_nat(n) for n in nat_args),
        tuple(mem_args),
        tuple(ty_args),
        tuple(as_term(a) for a in args),
    )


def launch(
    name: str,
    grid_dim: Dim,
    block_dim: Dim,
    *args: TermLike,
    nat_args: Sequence[NatLike] = (),
) -> T.KernelLaunch:
    return T.KernelLaunch(
        name,
        grid_dim,
        block_dim,
        tuple(as_nat(n) for n in nat_args),
        tuple(as_term(a) for a in args),
    )


def cpu_heap_new(init: TermLike) -> T.FnApp:
    return call("CpuHeap::new", init)


def gpu_alloc_copy(source: TermLike) -> T.FnApp:
    return call("GpuGlobal::alloc_copy", source)


def copy_to_host(dst: TermLike, src: TermLike) -> T.FnApp:
    return call("copy_mem_to_host", dst, src)


def copy_to_gpu(dst: TermLike, src: TermLike) -> T.FnApp:
    return call("copy_mem_to_gpu", dst, src)


# ---------------------------------------------------------------------------
# Functions and programs
# ---------------------------------------------------------------------------


def param(name: str, ty: DataType) -> T.FunParam:
    return T.FunParam(name, ty)


def nat_param(name: str) -> GenericParam:
    return GenericParam(name, Kind.NAT)


def dty_param(name: str) -> GenericParam:
    return GenericParam(name, Kind.DATA_TYPE)


def mem_param(name: str) -> GenericParam:
    return GenericParam(name, Kind.MEMORY)


def gpu_grid_spec(name: str, blocks: Dim, threads: Dim) -> ExecSpec:
    return ExecSpec(name, GpuGridLevel(blocks, threads))


def gpu_block_spec(name: str, threads: Dim) -> ExecSpec:
    return ExecSpec(name, GpuBlockLevel(threads))


def gpu_thread_spec(name: str = "t") -> ExecSpec:
    return ExecSpec(name, GpuThreadLevel())


def cpu_spec(name: str = "t") -> ExecSpec:
    return ExecSpec(name, CpuThreadLevel())


def fun(
    name: str,
    params: Sequence[T.FunParam],
    exec_spec: ExecSpec,
    fn_body: T.Block,
    generics: Sequence[GenericParam] = (),
    ret: DataType = UNIT,
    where: Sequence[WhereClause] = (),
) -> T.FunDef:
    return T.FunDef(
        name=name,
        generics=tuple(generics),
        params=tuple(params),
        exec_spec=exec_spec,
        ret=ret,
        body=fn_body,
        where=tuple(where),
    )


def program(*fun_defs: T.FunDef) -> T.Program:
    return T.Program(tuple(fun_defs))
