"""IR passes over device plans (stage two of the plan pipeline).

Two simple, parity-preserving rewrites, run by the compiler driver as the
``lower.plan.opt`` pass (visible in ``--timings`` next to ``lower.plan``):

``fuse-arith``
    Fuse an arith op into its single arith consumer within the same op
    sequence (one generated statement and one batched ``ctx.arith(2)``
    instead of two).  Arithmetic cost is a pure per-lane counter under the
    current mask — and the mask is constant within a sequence — so the fused
    accounting is exactly the unfused accounting.

``dead-slots``
    Delete pure ops (constants, nat evaluations, comparisons, logic) whose
    result slot is never read, then compact the slot table.  Ops with
    effects (loads, stores, allocs, arith — they feed the cost model or the
    race detector) are never touched.

Every pass is a pure function ``plan -> (plan, change_count)`` over the
frozen dataclasses; nothing here mutates, so optimized and unoptimized
plans coexist (the ``repro.cli plan --no-opt`` disassembly).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Set, Tuple

from repro.descend.plan.ir import (
    AllocOp,
    ArithOp,
    BorrowOp,
    CompareOp,
    ConstOp,
    DevicePlan,
    ForEachOp,
    ForNatOp,
    FusedArithOp,
    IfOp,
    LogicOp,
    NatOp,
    NegOp,
    NotOp,
    PURE_OPS,
    PlaceIR,
    PlanOp,
    ReadOp,
    SchedOp,
    SlotIdxStep,
    SplitOp,
    StoreOp,
)

# ---------------------------------------------------------------------------
# Generic walkers
# ---------------------------------------------------------------------------


def _place_reads(place: PlaceIR) -> List[int]:
    slots = [place.root]
    slots.extend(step.slot for step in place.steps if isinstance(step, SlotIdxStep))
    return slots


def _op_reads(op: PlanOp) -> List[int]:
    """Slots this single op reads (bodies of structured ops not included)."""
    if isinstance(op, (ArithOp, CompareOp, LogicOp)):
        return [op.lhs, op.rhs]
    if isinstance(op, FusedArithOp):
        return [op.inner_lhs, op.inner_rhs, op.other]
    if isinstance(op, (NegOp, NotOp)):
        return [op.operand]
    if isinstance(op, (ReadOp, BorrowOp)):
        return _place_reads(op.place)
    if isinstance(op, StoreOp):
        return [op.value] + _place_reads(op.place)
    if isinstance(op, IfOp):
        return [op.cond]
    if isinstance(op, ForEachOp):
        return [op.collection]
    return []


def _op_bodies(op: PlanOp) -> List[Tuple[PlanOp, ...]]:
    if isinstance(op, IfOp):
        return [op.then_ops] + ([op.else_ops] if op.else_ops is not None else [])
    if isinstance(op, (ForNatOp, ForEachOp, SchedOp)):
        return [op.body]
    if isinstance(op, SplitOp):
        return [op.first, op.second]
    return []


def _walk(ops: Tuple[PlanOp, ...]):
    for op in ops:
        yield op
        for body in _op_bodies(op):
            yield from _walk(body)


def _read_counts(ops: Tuple[PlanOp, ...]) -> Dict[int, int]:
    counts: Dict[int, int] = {}
    for op in _walk(ops):
        for slot in _op_reads(op):
            counts[slot] = counts.get(slot, 0) + 1
    return counts


def _map_bodies(op: PlanOp, fn) -> PlanOp:
    """Rebuild a structured op with every body sequence passed through ``fn``."""
    if isinstance(op, IfOp):
        return replace(
            op,
            then_ops=fn(op.then_ops),
            else_ops=fn(op.else_ops) if op.else_ops is not None else None,
        )
    if isinstance(op, (ForNatOp, ForEachOp, SchedOp)):
        return replace(op, body=fn(op.body))
    if isinstance(op, SplitOp):
        return replace(op, first=fn(op.first), second=fn(op.second))
    return op


class _Counter:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


# ---------------------------------------------------------------------------
# Pass 1: adjacent-arith fusion
# ---------------------------------------------------------------------------

#: Ops an arith chain may be fused across: expression ops with no arith cost
#: of their own and no control-flow/mask effects.  (Loads are fine — the
#: arithmetic counter is order-independent of memory accesses.)
_FUSE_ACROSS = (ConstOp, NatOp, ReadOp, BorrowOp, CompareOp, LogicOp, NotOp)
#: How far ahead of a producer the single consumer may sit.
_FUSE_WINDOW = 8


def fuse_arith(plan: DevicePlan) -> Tuple[DevicePlan, int]:
    """Fuse arith producers into their single arith consumer."""
    counts = _read_counts(plan.body)
    counter = _Counter()

    def fuse_seq(ops: Tuple[PlanOp, ...]) -> Tuple[PlanOp, ...]:
        work = [_map_bodies(op, fuse_seq) for op in ops]
        out: List[PlanOp] = []
        index = 0
        while index < len(work):
            op = work[index]
            fused: Optional[Tuple[int, FusedArithOp]] = None
            if isinstance(op, ArithOp) and counts.get(op.out, 0) == 1:
                limit = min(index + 1 + _FUSE_WINDOW, len(work))
                for ahead in range(index + 1, limit):
                    nxt = work[ahead]
                    if isinstance(nxt, ArithOp) and op.out in (nxt.lhs, nxt.rhs):
                        if nxt.lhs != nxt.rhs:
                            inner_is_lhs = nxt.lhs == op.out
                            fused = (
                                ahead,
                                FusedArithOp(
                                    out=nxt.out,
                                    inner_op=op.op,
                                    inner_lhs=op.lhs,
                                    inner_rhs=op.rhs,
                                    outer_op=nxt.op,
                                    other=nxt.rhs if inner_is_lhs else nxt.lhs,
                                    inner_is_lhs=inner_is_lhs,
                                ),
                            )
                        break
                    if not isinstance(nxt, _FUSE_ACROSS) or op.out in _op_reads(nxt):
                        break
            if fused is None:
                out.append(op)
                index += 1
            else:
                ahead, fused_op = fused
                out.extend(work[index + 1 : ahead])
                out.append(fused_op)
                counter.value += 1
                index = ahead + 1
        return tuple(out)

    return replace(plan, body=fuse_seq(plan.body)), counter.value


# ---------------------------------------------------------------------------
# Pass 2: dead-slot elimination + slot-table compaction
# ---------------------------------------------------------------------------


def _remap_place(place: PlaceIR, mapping: Dict[int, int]) -> PlaceIR:
    steps = tuple(
        SlotIdxStep(mapping[step.slot]) if isinstance(step, SlotIdxStep) else step
        for step in place.steps
    )
    return replace(place, root=mapping[place.root], steps=steps)


def _remap_op(op: PlanOp, mapping: Dict[int, int]) -> PlanOp:
    if isinstance(op, (ConstOp, NatOp, AllocOp)):
        return replace(op, out=mapping[op.out])
    if isinstance(op, (ArithOp, CompareOp, LogicOp)):
        return replace(op, out=mapping[op.out], lhs=mapping[op.lhs], rhs=mapping[op.rhs])
    if isinstance(op, FusedArithOp):
        return replace(
            op,
            out=mapping[op.out],
            inner_lhs=mapping[op.inner_lhs],
            inner_rhs=mapping[op.inner_rhs],
            other=mapping[op.other],
        )
    if isinstance(op, (NegOp, NotOp)):
        return replace(op, out=mapping[op.out], operand=mapping[op.operand])
    if isinstance(op, (ReadOp, BorrowOp)):
        return replace(op, out=mapping[op.out], place=_remap_place(op.place, mapping))
    if isinstance(op, StoreOp):
        return replace(op, value=mapping[op.value], place=_remap_place(op.place, mapping))
    if isinstance(op, IfOp):
        return replace(op, cond=mapping[op.cond])
    if isinstance(op, ForEachOp):
        return replace(op, var=mapping[op.var], collection=mapping[op.collection])
    return op


def _op_writes(op: PlanOp) -> List[int]:
    out = getattr(op, "out", None)
    if out is not None:
        return [out]
    if isinstance(op, ForEachOp):
        return [op.var]
    return []


def eliminate_dead_slots(plan: DevicePlan) -> Tuple[DevicePlan, int]:
    """Drop pure ops with unread results, then compact the slot table."""
    counter = _Counter()
    body = plan.body
    while True:
        reads = set(_read_counts(body))

        def sweep(ops: Tuple[PlanOp, ...]) -> Tuple[PlanOp, ...]:
            kept = []
            for op in ops:
                if isinstance(op, PURE_OPS) and op.out not in reads:
                    counter.value += 1
                    continue
                kept.append(_map_bodies(op, sweep))
            return tuple(kept)

        swept = sweep(body)
        if swept == body:
            break
        body = swept

    # Compaction: parameters keep their slots (the executor binds launch
    # arguments by index), every other referenced slot is renumbered densely.
    referenced: Set[int] = set(range(len(plan.params)))
    for op in _walk(body):
        referenced.update(_op_reads(op))
        referenced.update(_op_writes(op))
    mapping = {old: new for new, old in enumerate(sorted(referenced))}

    def remap_seq(ops: Tuple[PlanOp, ...]) -> Tuple[PlanOp, ...]:
        return tuple(_map_bodies(_remap_op(op, mapping), remap_seq) for op in ops)

    slot_names = tuple(plan.slot_names[old] for old in sorted(referenced))
    return (
        replace(plan, body=remap_seq(body), slot_names=slot_names),
        counter.value + (plan.n_slots - len(slot_names)),
    )


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------

#: The pass pipeline, in application order (name, pass function).
PASSES = (
    ("fuse-arith", fuse_arith),
    ("dead-slots", eliminate_dead_slots),
)


def optimize_plan(plan: DevicePlan) -> Tuple[DevicePlan, str]:
    """Run the full pass pipeline; returns the plan and a change summary.

    The summary string (e.g. ``"fuse-arith:1 dead-slots:6"``)
    lands in the ``lower.plan.opt`` pass timing's detail field.
    """
    details = []
    for name, pass_fn in PASSES:
        plan, changed = pass_fn(plan)
        details.append(f"{name}:{changed}")
    return plan, " ".join(details)
