"""Runtime support library for generated device-plan source.

The :mod:`repro.descend.plan.codegen` pass emits a straight-line Python
source function per plan; everything in that generated source that is not a
plain local-variable assignment or a masked numpy expression calls back into
this module (the ``rt`` parameter of the generated function).  Generated
source is the only batched executor of a device plan: the ``vectorized`` and
``jit`` engines both run it, and the per-thread reference interpreter
(:mod:`repro.descend.interp.device`) is the cycle/race parity oracle.

Masking discipline: every load/store/arith forwards the generated
function's current ``_mask`` local as ``where=``, so inactive lanes do not
advance slot counters, record no accesses, and count no arithmetic —
exactly like threads that skip a branch in the reference engine.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, Tuple

import numpy as np

from repro.descend.ast.dims import DimName
from repro.descend.ast.exec_level import GpuGridLevel
from repro.descend.interp.values import MemValue, numpy_dtype, static_shape
from repro.descend.nat import Nat, evaluate_nat
from repro.descend.plan.ir import (
    AllocOp,
    NatIdxStep,
    PlaceIR,
    ProjStep,
    SchedOp,
    SelectStep,
    SplitOp,
    ViewStep,
)
from repro.descend.views.indexing import BoundView, LogicalArray, LogicalPair
from repro.descend.views.registry import resolve_view
from repro.errors import DescendRuntimeError

#: Re-exported so generated code can write ``isinstance(x, rt.ndarray)``.
ndarray = np.ndarray

#: Sentinel: the evaluated place is the scalar root local itself.
_LOCAL = object()


class ElementSlot:
    """A batch of fully indexed elements: one offset per thread of the grid."""

    __slots__ = ("buffer", "offsets")

    def __init__(self, buffer, offsets) -> None:
        self.buffer = buffer
        self.offsets = offsets


@lru_cache(maxsize=512)
def _resolved_view(ref):
    """Registry resolution of a view reference, memoized across launches.

    The IR stores the syntactic :class:`~repro.descend.ast.views.ViewRef`
    (plain data, serializable); the registry lookup happens here, once per
    distinct reference per process.
    """
    return resolve_view(ref)


def _as_int_index(value):
    """Mirror the reference interpreter's ``int(...)`` on expression indices."""
    if isinstance(value, np.ndarray):
        return value.astype(np.int64, copy=False)
    return int(value)


def _is_integer(value) -> bool:
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iu"
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# Launch prologue
# ---------------------------------------------------------------------------


def arg(args: Dict[str, object], name: str):
    """One launch argument (same missing-argument diagnostic as the oracle)."""
    if name not in args:
        raise DescendRuntimeError(f"missing argument `{name}`")
    return args[name]


def natf(env: Dict[str, int]) -> Callable[[Nat], int]:
    """A nat evaluator closed over the launch's (mutable) nat environment."""

    def nat_value(nat: Nat) -> int:
        return int(evaluate_nat(nat, env))

    return nat_value


def init_windows(level: GpuGridLevel, env: Dict[str, int]):
    """The ``sched``/``split`` window bookkeeping of one launch.

    Returns ``(block_window, thread_window, pending_blocks, pending_threads)``:
    every dimension starts unscheduled with its full ``[0, size)`` window.
    """
    block_window = {
        name: [0, int(evaluate_nat(size, env))] for name, size in level.blocks.entries
    }
    thread_window = {
        name: [0, int(evaluate_nat(size, env))] for name, size in level.threads.entries
    }
    return block_window, thread_window, set(block_window), set(thread_window)


# ---------------------------------------------------------------------------
# Scalar helpers inlined by the emitter
# ---------------------------------------------------------------------------


def div(lhs, rhs):
    """``/`` with the oracle's integer-division rule (floordiv iff both int)."""
    if _is_integer(lhs) and _is_integer(rhs):
        return lhs // rhs
    return lhs / rhs


def logic_and(lhs, rhs):
    if isinstance(lhs, np.ndarray) or isinstance(rhs, np.ndarray):
        return np.logical_and(lhs, rhs)
    return bool(lhs) and bool(rhs)


def logic_or(lhs, rhs):
    if isinstance(lhs, np.ndarray) or isinstance(rhs, np.ndarray):
        return np.logical_or(lhs, rhs)
    return bool(lhs) or bool(rhs)


def logic_not(value):
    if isinstance(value, np.ndarray):
        return np.logical_not(value)
    return not value


# ---------------------------------------------------------------------------
# Place evaluation (reads, borrows, stores)
# ---------------------------------------------------------------------------


def _eval_place(place: PlaceIR, root_value, idxs: Tuple, nat_value, coords):
    """Resolve a place chain over pre-read slot values.

    ``idxs`` holds the values of the place's ``SlotIdxStep`` slots in chain
    order (the generated call site reads them from its locals); ``coords`` is
    the generated function's execution-coordinate dict.
    """
    if root_value is None:
        raise DescendRuntimeError(f"unbound variable `{place.root_name}` at runtime")
    if not isinstance(root_value, MemValue):
        if not place.steps:
            return _LOCAL
        raise DescendRuntimeError(
            f"`{place.root_name}` is a scalar and cannot be indexed or viewed"
        )

    current = root_value.logical
    next_idx = 0
    for step in place.steps:
        if isinstance(step, ViewStep):
            if isinstance(current, LogicalPair):
                raise DescendRuntimeError("`split` must be followed by `.fst`/`.snd`")
            current = current.apply_view(BoundView(_resolved_view(step.ref), nat_value))
            continue
        if isinstance(step, ProjStep):
            if isinstance(current, LogicalPair):
                current = current.project(step.index)
                continue
            raise DescendRuntimeError("tuple projections on runtime tuples are not supported")
        if isinstance(current, LogicalPair):
            raise DescendRuntimeError("`split` must be followed by `.fst`/`.snd`")
        if isinstance(step, SelectStep):
            exec_coords = coords.get(step.exec_var)
            if exec_coords is None:
                raise DescendRuntimeError(
                    f"`{step.exec_var}` is not a scheduled execution resource"
                )
            current = current.select(exec_coords)
            continue
        if isinstance(step, NatIdxStep):
            current = current.index(nat_value(step.nat))
            continue
        # SlotIdxStep: the index value was read from its slot local.
        current = current.index(_as_int_index(idxs[next_idx]))
        next_idx += 1

    if isinstance(current, LogicalPair):
        raise DescendRuntimeError("`split` must be followed by `.fst`/`.snd`")
    if current.is_scalar():
        return ElementSlot(buffer=root_value.buffer, offsets=current.flat_offset(()))
    return MemValue(buffer=root_value.buffer, logical=current, uniq=root_value.uniq)


def read(place: PlaceIR, root_value, idxs, nat_value, coords, ctx, mask):
    target = _eval_place(place, root_value, idxs, nat_value, coords)
    if isinstance(target, ElementSlot):
        return ctx.load(target.buffer, target.offsets, where=mask)
    if target is _LOCAL:
        return root_value
    return target


def borrow(place: PlaceIR, root_value, idxs, nat_value, coords):
    target = _eval_place(place, root_value, idxs, nat_value, coords)
    if isinstance(target, ElementSlot):
        raise DescendRuntimeError("cannot borrow a single element at runtime")
    if target is _LOCAL:
        raise DescendRuntimeError("cannot borrow a scalar local at runtime")
    return target


def store(place: PlaceIR, root_value, idxs, value, nat_value, coords, ctx, mask):
    """One assignment; returns the (possibly replaced) root slot value.

    Uniform call shape for all three target kinds: a scalar-local target
    returns the masked-merged new value (the call site rebinds the root
    local), element and whole-array targets return the root unchanged.
    """
    target = _eval_place(place, root_value, idxs, nat_value, coords)
    if target is _LOCAL:
        if mask is None:
            return value
        return np.where(mask, value, root_value)
    if isinstance(target, ElementSlot):
        ctx.store(target.buffer, target.offsets, value, where=mask)
        return root_value
    raise DescendRuntimeError(f"cannot assign a whole array at once: `{place.text}`")


def alloc(op: AllocOp, env: Dict[str, int], ctx) -> MemValue:
    shape = static_shape(op.ty, env) or (1,)
    dtype = numpy_dtype(op.ty)
    if op.space == "gpu.shared":
        # Stable per-site pool key: re-evaluating the same alloc (a loop
        # body) reuses the one per-block buffer, like the reference engine.
        buffer = ctx.shared(f"plan_shared_{op.alloc_id}", shape, dtype=dtype)
    else:
        buffer = ctx.local(shape, dtype=dtype)
    return MemValue(buffer=buffer, logical=LogicalArray.root(tuple(buffer.shape)))


# ---------------------------------------------------------------------------
# Structured control flow
# ---------------------------------------------------------------------------


def foreach_size(collection) -> int:
    if not isinstance(collection, MemValue):
        raise DescendRuntimeError("`for ... in` expects an array value")
    return int(collection.shape[0])


def foreach_element(collection: MemValue, index: int, ctx, mask):
    element = collection.logical.index(index)
    if element.is_scalar():
        return ctx.load(collection.buffer, element.flat_offset(()), where=mask)
    return MemValue(buffer=collection.buffer, logical=element)


def _raw_index(ctx, dim: DimName, over_blocks: bool) -> np.ndarray:
    source = ctx.blockIdx if over_blocks else ctx.threadIdx
    return {DimName.X: source.x, DimName.Y: source.y, DimName.Z: source.z}[dim]


def sched_enter(
    op: SchedOp, block_window, thread_window, pending_blocks, pending_threads, coords, ctx
):
    """Bind one ``sched`` op's execution coordinates; returns the restore state."""
    over_blocks = bool(pending_blocks)
    window = block_window if over_blocks else thread_window
    pending = pending_blocks if over_blocks else pending_threads

    new_coords = []
    for dim in op.dims:
        if dim not in pending:
            raise DescendRuntimeError(f"dimension {dim} is not pending for `{op.binder}`")
        lo, _hi = window[dim]
        raw = _raw_index(ctx, dim, over_blocks)
        new_coords.append(raw - lo if lo else raw)
    for dim in op.dims:
        pending.discard(dim)
    previous = coords.get(op.binder)
    coords[op.binder] = tuple(new_coords)
    return pending, previous


def sched_exit(op: SchedOp, saved, coords) -> None:
    pending, previous = saved
    if previous is None:
        coords.pop(op.binder, None)
    else:
        coords[op.binder] = previous
    for dim in op.dims:
        pending.add(dim)


def split_enter(op: SplitOp, block_window, thread_window, pending_blocks, nat_value, ctx):
    """The window/partition state of one ``split`` op.

    Returns ``(window, lo, hi, pos, first_cond)``; the generated code
    narrows ``window[op.dim]`` around each arm and restores it, exactly like
    the reference interpreter's ``_exec_split``.
    """
    over_blocks = op.dim in pending_blocks
    window = block_window if over_blocks else thread_window
    if op.dim not in window:
        raise DescendRuntimeError(f"cannot split missing dimension {op.dim}")
    lo, hi = window[op.dim]
    pos = nat_value(op.pos)
    relative = _raw_index(ctx, op.dim, over_blocks) - lo
    return window, lo, hi, pos, relative < pos


__all__ = [
    "alloc",
    "arg",
    "borrow",
    "div",
    "foreach_element",
    "foreach_size",
    "init_windows",
    "logic_and",
    "logic_not",
    "logic_or",
    "natf",
    "ndarray",
    "read",
    "sched_enter",
    "sched_exit",
    "split_enter",
    "store",
]
