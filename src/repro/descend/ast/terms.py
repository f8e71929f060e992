"""Terms of Descend (Figure 5) plus function definitions and whole programs.

Statements and expressions share the :class:`Term` base class (as in the
paper, where everything is a term of some type — most statements have type
``unit``).  The node set covers the paper's grammar:

* place expressions (as terms), let bindings, assignments, borrows, blocks
* function application with explicit type-level arguments
* ``for``-each and ``for``-nat loops, ``if`` conditionals
* ``sched``, ``split`` and ``sync`` — the execution-hierarchy primitives
* memory allocation (``alloc::<mem, T>()``, host heap/device allocations)
* kernel launches ``f::<<<Dim, Dim>>>(args)``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.descend.ast.dims import Dim, DimName
from repro.descend.ast.exec_level import ExecSpec
from repro.descend.ast.memory import Memory
from repro.descend.ast.places import PlaceExpr
from repro.descend.ast.types import DataType, FnType, GenericParam, WhereClause
from repro.descend.nat import Nat
from repro.descend.source import NO_SPAN, Span


class Term:
    """Base class of Descend terms."""

    __slots__ = ()

    span: Span = NO_SPAN


@dataclass(frozen=True)
class Lit(Term):
    """A literal value: integer, float, boolean, or unit."""

    value: Any
    ty: DataType
    span: Span = NO_SPAN

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class PlaceTerm(Term):
    """A place expression used as a value (a read)."""

    place: PlaceExpr
    span: Span = NO_SPAN

    def __str__(self) -> str:
        return str(self.place)


@dataclass(frozen=True)
class BinaryOp(Term):
    """Arithmetic / comparison / logical binary operation."""

    op: str
    lhs: Term
    rhs: Term
    span: Span = NO_SPAN

    def __str__(self) -> str:
        return f"({self.lhs} {self.op} {self.rhs})"


@dataclass(frozen=True)
class UnaryOp(Term):
    """Unary negation / logical not."""

    op: str
    operand: Term
    span: Span = NO_SPAN

    def __str__(self) -> str:
        return f"({self.op}{self.operand})"


@dataclass(frozen=True)
class NatTerm(Term):
    """A nat expression used as a runtime value (e.g. a loop variable)."""

    nat: Nat
    span: Span = NO_SPAN

    def __str__(self) -> str:
        return str(self.nat)


@dataclass(frozen=True)
class Borrow(Term):
    """``&p`` / ``&uniq p`` — create a (unique) reference to a place."""

    uniq: bool
    place: PlaceExpr
    span: Span = NO_SPAN

    def __str__(self) -> str:
        return f"&{'uniq ' if self.uniq else ''}{self.place}"


@dataclass(frozen=True)
class LetTerm(Term):
    """``let x: δ = t`` — introduce and initialise a new variable."""

    name: str
    ty: Optional[DataType]
    init: Term
    span: Span = NO_SPAN

    def __str__(self) -> str:
        annotation = f": {self.ty}" if self.ty is not None else ""
        return f"let {self.name}{annotation} = {self.init}"


@dataclass(frozen=True)
class Assign(Term):
    """``p = t`` — store a value into the memory referred to by ``p``."""

    place: PlaceExpr
    value: Term
    span: Span = NO_SPAN

    def __str__(self) -> str:
        return f"{self.place} = {self.value}"


@dataclass(frozen=True)
class Block(Term):
    """``{ t; t; ... }`` — a new scope containing a sequence of terms."""

    stmts: Tuple[Term, ...]
    span: Span = NO_SPAN

    def __str__(self) -> str:
        return "{ " + "; ".join(str(s) for s in self.stmts) + " }"


@dataclass(frozen=True)
class IfTerm(Term):
    """``if cond { then } else { otherwise }`` (else optional)."""

    cond: Term
    then: Block
    otherwise: Optional[Block]
    span: Span = NO_SPAN

    def __str__(self) -> str:
        text = f"if {self.cond} {self.then}"
        if self.otherwise is not None:
            text += f" else {self.otherwise}"
        return text


@dataclass(frozen=True)
class ForNat(Term):
    """``for i in [lo..hi] { body }`` — loop over a static range of nats."""

    var: str
    lo: Nat
    hi: Nat
    body: Block
    span: Span = NO_SPAN

    def __str__(self) -> str:
        return f"for {self.var} in [{self.lo}..{self.hi}] {self.body}"


@dataclass(frozen=True)
class ForEach(Term):
    """``for x in t { body }`` — loop over the elements of a collection."""

    var: str
    collection: Term
    body: Block
    span: Span = NO_SPAN

    def __str__(self) -> str:
        return f"for {self.var} in {self.collection} {self.body}"


@dataclass(frozen=True)
class Sched(Term):
    """``sched(dims) x in e { body }`` — schedule over nested execution resources."""

    dims: Tuple[DimName, ...]
    binder: str
    exec_name: str
    body: Block
    span: Span = NO_SPAN

    def __str__(self) -> str:
        dims = ",".join(str(d) for d in self.dims)
        return f"sched({dims}) {self.binder} in {self.exec_name} {self.body}"


@dataclass(frozen=True)
class SplitExec(Term):
    """``split(dim) e at pos { x1 => {..}, x2 => {..} }`` — split an execution resource."""

    dim: DimName
    exec_name: str
    pos: Nat
    first_binder: str
    first_body: Block
    second_binder: str
    second_body: Block
    span: Span = NO_SPAN

    def __str__(self) -> str:
        return (
            f"split({self.dim}) {self.exec_name} at {self.pos} "
            f"{{ {self.first_binder} => {self.first_body}, "
            f"{self.second_binder} => {self.second_body} }}"
        )


@dataclass(frozen=True)
class Sync(Term):
    """``sync`` — block-wide barrier synchronisation."""

    span: Span = NO_SPAN

    def __str__(self) -> str:
        return "sync"


@dataclass(frozen=True)
class Alloc(Term):
    """``alloc::<mem, T>()`` — allocate (uninitialised) memory in an address space.

    With ``mem = gpu.shared`` this is the per-block shared-memory allocation of
    Listing 2; ``gpu.local`` allocates per-thread private memory.
    """

    mem: Memory
    ty: DataType
    span: Span = NO_SPAN

    def __str__(self) -> str:
        return f"alloc::<{self.mem}, {self.ty}>()"


@dataclass(frozen=True)
class ArrayInit(Term):
    """``[value; size]`` — an array filled with copies of ``value``."""

    value: Term
    size: Nat
    span: Span = NO_SPAN

    def __str__(self) -> str:
        return f"[{self.value}; {self.size}]"


@dataclass(frozen=True)
class FnApp(Term):
    """``f::<η, μ, δ>(t, ...)`` — apply a (possibly polymorphic) function.

    Built-in host operations (``CpuHeap::new``, ``GpuGlobal::alloc_copy``,
    ``copy_mem_to_host``) are ordinary function applications resolved against
    the prelude.
    """

    name: str
    nat_args: Tuple[Nat, ...] = ()
    mem_args: Tuple[Memory, ...] = ()
    ty_args: Tuple[DataType, ...] = ()
    args: Tuple[Term, ...] = ()
    span: Span = NO_SPAN

    def __str__(self) -> str:
        generics = ""
        pieces = [str(n) for n in self.nat_args] + [str(m) for m in self.mem_args] + [
            str(t) for t in self.ty_args
        ]
        if pieces:
            generics = "::<" + ", ".join(pieces) + ">"
        args = ", ".join(str(a) for a in self.args)
        return f"{self.name}{generics}({args})"


@dataclass(frozen=True)
class KernelLaunch(Term):
    """``f::<<<BlockDim, ThreadDim>>>(args)`` — launch a GPU function from the host."""

    name: str
    grid_dim: Dim
    block_dim: Dim
    nat_args: Tuple[Nat, ...] = ()
    args: Tuple[Term, ...] = ()
    span: Span = NO_SPAN

    def __str__(self) -> str:
        generics = ""
        if self.nat_args:
            generics = "::<" + ", ".join(str(n) for n in self.nat_args) + ">"
        args = ", ".join(str(a) for a in self.args)
        return f"{self.name}{generics}<<<{self.grid_dim}, {self.block_dim}>>>({args})"


# ---------------------------------------------------------------------------
# Function definitions and programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunParam:
    """A value parameter of a function definition."""

    name: str
    ty: DataType
    span: Span = NO_SPAN

    def __str__(self) -> str:
        return f"{self.name}: {self.ty}"


@dataclass(frozen=True)
class FunDef:
    """A Descend function definition."""

    name: str
    generics: Tuple[GenericParam, ...]
    params: Tuple[FunParam, ...]
    exec_spec: ExecSpec
    ret: DataType
    body: Block
    where: Tuple[WhereClause, ...] = ()
    span: Span = NO_SPAN

    def fn_type(self) -> FnType:
        return FnType(
            generics=self.generics,
            params=tuple(p.ty for p in self.params),
            exec_spec=self.exec_spec,
            ret=self.ret,
            where=self.where,
        )

    def __str__(self) -> str:
        generics = ""
        if self.generics:
            generics = "<" + ", ".join(str(g) for g in self.generics) + ">"
        params = ", ".join(str(p) for p in self.params)
        return f"fn {self.name}{generics}({params}) -[{self.exec_spec}]-> {self.ret}"


@dataclass(frozen=True)
class ViewDef:
    """A named view definition (``view group_by_row<...> = ...``).

    The reproduction ships the composite views used in the paper as built-ins
    (see :mod:`repro.descend.views.registry`); user-defined view definitions
    are parsed and registered as compositions of existing views.
    """

    name: str
    nat_params: Tuple[str, ...]
    body: Tuple[Any, ...]  # sequence of ViewRef applied left-to-right
    span: Span = NO_SPAN


@dataclass(frozen=True)
class Program:
    """A whole Descend compilation unit."""

    fun_defs: Tuple[FunDef, ...]
    view_defs: Tuple[ViewDef, ...] = ()
    span: Span = NO_SPAN

    def fun(self, name: str) -> FunDef:
        for fun_def in self.fun_defs:
            if fun_def.name == name:
                return fun_def
        raise KeyError(f"no function named {name!r}")

    def gpu_functions(self) -> Tuple[FunDef, ...]:
        return tuple(f for f in self.fun_defs if f.exec_spec.is_gpu())

    def cpu_functions(self) -> Tuple[FunDef, ...]:
        return tuple(f for f in self.fun_defs if not f.exec_spec.is_gpu())


# ---------------------------------------------------------------------------
# Traversal helpers
# ---------------------------------------------------------------------------


def child_terms(term: Term) -> List[Term]:
    """Direct sub-terms of a term (used by generic traversals)."""
    if isinstance(term, (Lit, PlaceTerm, NatTerm, Sync, Alloc, Borrow)):
        return []
    if isinstance(term, BinaryOp):
        return [term.lhs, term.rhs]
    if isinstance(term, UnaryOp):
        return [term.operand]
    if isinstance(term, LetTerm):
        return [term.init]
    if isinstance(term, Assign):
        return [term.value]
    if isinstance(term, Block):
        return list(term.stmts)
    if isinstance(term, IfTerm):
        children: List[Term] = [term.cond, term.then]
        if term.otherwise is not None:
            children.append(term.otherwise)
        return children
    if isinstance(term, ForNat):
        return [term.body]
    if isinstance(term, ForEach):
        return [term.collection, term.body]
    if isinstance(term, Sched):
        return [term.body]
    if isinstance(term, SplitExec):
        return [term.first_body, term.second_body]
    if isinstance(term, ArrayInit):
        return [term.value]
    if isinstance(term, FnApp):
        return list(term.args)
    if isinstance(term, KernelLaunch):
        return list(term.args)
    return []


def walk_terms(term: Term):
    """Yield ``term`` and every nested sub-term, depth first."""
    yield term
    for child in child_terms(term):
        yield from walk_terms(child)


def contains_sync(term: Term) -> bool:
    """Whether a barrier synchronisation occurs anywhere inside ``term``."""
    return any(isinstance(t, Sync) for t in walk_terms(term))
