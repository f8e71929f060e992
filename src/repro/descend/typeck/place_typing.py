"""The place-expression typing judgement.

``type_place`` walks a place expression from its root variable outwards and
computes:

* the data type of the denoted region,
* the memory space the region lives in,
* ownership information (the root variable and the sched depth that owns it),
* which execution variables were used in selects (for the narrowing check),
* whether the place may be written through (it is not reached via a shared
  reference).

Selects (``p[[thread]]``) are checked here: the selected array level must have
exactly as many elements as the selecting execution resource has
sub-resources (the paper's "mismatched types" on sizes, E0005).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.descend.ast.memory import CPU_MEM, GPU_LOCAL, Memory
from repro.descend.ast.places import (
    PDeref,
    PIdx,
    PProj,
    PSelect,
    PVar,
    PView,
    PlaceExpr,
)
from repro.descend.ast.types import (
    ArrayType,
    ArrayViewType,
    AtType,
    DataType,
    RefType,
    TupleType,
)
from repro.descend.diagnostics import Diagnostic
from repro.descend.nat import Nat, NatConst, nat_equal
from repro.descend.source import Span
from repro.descend.typeck.context import TypingContext, VarInfo
from repro.descend.views.indexing import bind_view
from repro.descend.views.registry import ViewError
from repro.errors import DescendTypeError


@dataclass
class PlaceInfo:
    """Everything the access-safety check needs to know about a place."""

    place: PlaceExpr
    ty: DataType
    mem: Memory
    root: VarInfo
    select_vars: Tuple[str, ...]
    writable: bool
    went_through_ref: bool
    span: Span

    @property
    def root_name(self) -> str:
        return self.root.name


@dataclass
class _WalkState:
    """Mutable state while walking the chain of a place expression."""

    ty: DataType
    mem: Memory
    writable: bool
    went_through_ref: bool
    pair_shapes: Optional[Tuple[Tuple[Nat, ...], Tuple[Nat, ...]]] = None
    pair_elem: Optional[DataType] = None


def _shape_and_elem(ty: DataType) -> Tuple[Tuple[Nat, ...], DataType]:
    """Decompose (possibly nested) array types into a shape and the element type."""
    if isinstance(ty, (ArrayType, ArrayViewType)):
        return ty.shape(), ty.element_scalar()
    raise _NotAnArray()


class _NotAnArray(Exception):
    pass


def _rebuild_view_type(shape: Tuple[Nat, ...], elem: DataType) -> DataType:
    """Rebuild a (view) array type from a shape and element type."""
    ty = elem
    for size in reversed(shape):
        ty = ArrayViewType(ty, size)
    return ty


def _auto_deref(state: _WalkState, ctx: TypingContext, span: Span) -> None:
    """Implicitly dereference references and boxed values before further access."""
    while True:
        if isinstance(state.ty, RefType):
            if not state.ty.uniq:
                state.writable = False
            state.mem = state.ty.mem
            state.ty = state.ty.referent
            state.went_through_ref = True
            continue
        if isinstance(state.ty, AtType):
            state.mem = state.ty.mem
            state.ty = state.ty.inner
            continue
        return


def _error(ctx: TypingContext, code: str, message: str, span: Span, label: str = "",
           notes: Optional[List[str]] = None) -> DescendTypeError:
    return ctx.error(Diagnostic.error(code, message, span, label, notes))


def type_place(ctx: TypingContext, place: PlaceExpr, span: Optional[Span] = None) -> PlaceInfo:
    """Type a place expression in the given context."""
    span = span or place.span
    parts = place.parts()
    root_part = parts[0]
    if not isinstance(root_part, PVar):
        raise _error(ctx, "E0009", "place expressions must be rooted in a variable", span)

    # The root might name an execution resource — give a dedicated message.
    info = ctx.locals.lookup(root_part.name)
    if info is None:
        if root_part.name in ctx.exec_binders:
            raise _error(
                ctx,
                "E0009",
                f"`{root_part.name}` is an execution resource, not a place",
                span,
            )
        raise _error(ctx, "E0009", f"cannot find value `{root_part.name}` in this scope", span)

    if info.moved:
        raise _error(
            ctx,
            "E0007",
            f"use of moved value: `{info.name}`",
            span,
            label=f"value `{info.name}` was moved and cannot be used again",
        )

    state = _WalkState(
        ty=info.ty,
        mem=info.mem if info.mem is not None else _default_memory(ctx),
        writable=True,
        went_through_ref=False,
    )

    select_vars: List[str] = []

    for part in parts[1:]:
        if isinstance(part, PDeref):
            _deref_step(state, ctx, part, span)
        elif isinstance(part, PView):
            _view_step(state, ctx, part, span)
        elif isinstance(part, PSelect):
            _select_step(state, ctx, part, span, select_vars)
        elif isinstance(part, PIdx):
            _index_step(state, ctx, part, span)
        elif isinstance(part, PProj):
            _proj_step(state, ctx, part, span)
        else:  # pragma: no cover - exhaustive
            raise _error(ctx, "E0011", f"unsupported place expression {part}", span)

    if state.pair_shapes is not None:
        raise _error(
            ctx,
            "E0011",
            "`split` must be followed by `.fst` or `.snd`",
            span,
        )

    return PlaceInfo(
        place=place,
        ty=state.ty,
        mem=state.mem,
        root=info,
        select_vars=tuple(select_vars),
        writable=state.writable,
        went_through_ref=state.went_through_ref,
        span=span,
    )


def _default_memory(ctx: TypingContext) -> Memory:
    """Memory space of plain locals: CPU stack on the host, private memory on the GPU."""
    if ctx.exec_spec.is_gpu():
        return GPU_LOCAL
    return CPU_MEM


def _deref_step(state: _WalkState, ctx: TypingContext, part: PDeref, span: Span) -> None:
    if isinstance(state.ty, RefType):
        if not state.ty.uniq:
            state.writable = False
        state.mem = state.ty.mem
        state.ty = state.ty.referent
        state.went_through_ref = True
        return
    if isinstance(state.ty, AtType):
        state.mem = state.ty.mem
        state.ty = state.ty.inner
        return
    raise _error(
        ctx,
        "E0011",
        f"type `{state.ty}` cannot be dereferenced",
        span,
    )


def _view_step(state: _WalkState, ctx: TypingContext, part: PView, span: Span) -> None:
    if state.pair_shapes is not None:
        raise _error(ctx, "E0011", "`split` must be followed by `.fst` or `.snd`", span)
    _auto_deref(state, ctx, span)
    try:
        shape, elem = _shape_and_elem(state.ty)
    except _NotAnArray:
        raise _error(
            ctx,
            "E0011",
            f"views can only be applied to arrays, but `{part.base}` has type `{state.ty}`",
            span,
        ) from None

    try:
        bound = bind_view(part.ref)
    except ViewError as exc:
        raise _error(ctx, "E0009", str(exc), span) from None

    constraints = bound.view.impl.static_constraints(list(part.ref.nat_args), shape)
    if constraints:
        raise _error(
            ctx,
            "E0012",
            f"view `{part.ref}` cannot be applied to an array of shape "
            f"[{', '.join(str(s) for s in shape)}]",
            span,
            notes=constraints,
        )

    try:
        out = bound.out_shape(shape)
    except ViewError as exc:
        raise _error(ctx, "E0012", str(exc), span) from None

    if bound.is_split:
        first, second = out
        state.pair_shapes = (tuple(first), tuple(second))
        state.pair_elem = elem
        return
    state.ty = _rebuild_view_type(tuple(out), elem)


def _select_step(
    state: _WalkState,
    ctx: TypingContext,
    part: PSelect,
    span: Span,
    select_vars: List[str],
) -> None:
    if state.pair_shapes is not None:
        raise _error(ctx, "E0011", "`split` must be followed by `.fst` or `.snd`", span)
    _auto_deref(state, ctx, span)
    frame = ctx.frame_of_binder(part.exec_var)
    if frame is None:
        raise _error(
            ctx,
            "E0009",
            f"`{part.exec_var}` is not an execution resource bound by `sched` in scope",
            span,
        )
    try:
        shape, elem = _shape_and_elem(state.ty)
    except _NotAnArray:
        raise _error(
            ctx,
            "E0011",
            f"cannot select from non-array type `{state.ty}`",
            span,
        ) from None

    extents = frame.extents
    if len(shape) < len(extents):
        raise _error(
            ctx,
            "E0005",
            f"mismatched types: selecting with `{part.exec_var}` needs an array of rank "
            f">= {len(extents)}, found shape [{', '.join(str(s) for s in shape)}]",
            span,
        )
    for axis, extent in enumerate(extents):
        if not nat_equal(shape[axis], extent):
            raise _error(
                ctx,
                "E0005",
                "mismatched types: array and execution resource sizes differ",
                span,
                label=(
                    f"expected `[{extent}]` elements for `{part.exec_var}`, "
                    f"found `[{shape[axis]}]`"
                ),
            )
    state.ty = _rebuild_view_type(tuple(shape[len(extents):]), elem)
    select_vars.append(part.exec_var)


def _index_step(state: _WalkState, ctx: TypingContext, part: PIdx, span: Span) -> None:
    if state.pair_shapes is not None:
        raise _error(ctx, "E0011", "`split` must be followed by `.fst` or `.snd`", span)
    _auto_deref(state, ctx, span)
    try:
        shape, elem = _shape_and_elem(state.ty)
    except _NotAnArray:
        raise _error(
            ctx,
            "E0011",
            f"cannot index into non-array type `{state.ty}`",
            span,
        ) from None
    if isinstance(part.index, Nat):
        size = shape[0]
        if (
            isinstance(part.index, NatConst)
            and isinstance(size, NatConst)
            and part.index.value >= size.value
        ):
            raise _error(
                ctx,
                "E0005",
                f"index {part.index} out of bounds for array of size {size}",
                span,
            )
    state.ty = _rebuild_view_type(tuple(shape[1:]), elem)


def _proj_step(state: _WalkState, ctx: TypingContext, part: PProj, span: Span) -> None:
    if state.pair_shapes is not None:
        shape = state.pair_shapes[part.index]
        elem = state.pair_elem
        assert elem is not None
        state.ty = _rebuild_view_type(shape, elem)
        state.pair_shapes = None
        state.pair_elem = None
        return
    _auto_deref(state, ctx, span)
    if isinstance(state.ty, TupleType):
        if part.index >= len(state.ty.elems):
            raise _error(ctx, "E0011", "tuple projection out of range", span)
        state.ty = state.ty.elems[part.index]
        return
    raise _error(
        ctx,
        "E0011",
        f"`.fst`/`.snd` can only be applied to tuples or `split` views, "
        f"found `{state.ty}`",
        span,
    )
