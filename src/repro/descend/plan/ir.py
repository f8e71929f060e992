"""The data-driven device-plan IR.

A :class:`DevicePlan` is a GPU Descend function lowered to a flat program of
frozen dataclass *ops* over an explicit slot table — plain data, no embedded
callables.  That makes plans

* **serializable**: ``pickle.dumps(plan)`` round-trips byte-exactly, so the
  persistent artifact store keeps whole plans as first-class ``plan``
  artifacts and warm processes (CLI invocations, sweep workers) deserialize
  them instead of re-running the lowering;
* **inspectable**: :func:`disassemble` renders the IR as deterministic text
  (the ``repro.cli plan`` sub-command, golden tests);
* **optimizable**: :mod:`repro.descend.plan.optimize` rewrites op trees with
  ``dataclasses.replace`` instead of reaching into closure cells.

The value model mirrors the closure compiler this package replaced:

* every expression op writes its result into a numbered **slot** of the
  launch's register file (one Python value per slot — a uniform scalar, a
  per-thread numpy array, or a :class:`~repro.descend.interp.values.MemValue`);
  function parameters occupy slots ``0..len(params)-1``;
* place expressions are :class:`PlaceIR` chains of data steps (views, nat
  indices, slot-valued indices, execution-resource selects) resolved against
  the views engine at execution time;
* control flow stays structured: ``if``/``split`` ops carry their body op
  tuples and the executor runs them under boolean lane masks, exactly like
  the divergence handling of the vectorized engine.

Semantics (and cycle/race parity) live in the source the
:mod:`repro.descend.plan.codegen` pass generates; this module is
deliberately *just* the data definitions plus the disassembler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple, Union

from repro.descend.ast.dims import DimName
from repro.descend.ast.exec_level import GpuGridLevel
from repro.descend.ast.types import DataType
from repro.descend.ast.views import ViewRef
from repro.descend.nat import Nat

# ---------------------------------------------------------------------------
# Place chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ViewStep:
    """Apply a view (``.group::<32>``); resolved against the registry at run time."""

    ref: ViewRef


@dataclass(frozen=True)
class ProjStep:
    """Project a ``split`` pair (``.fst`` = 0, ``.snd`` = 1)."""

    index: int


@dataclass(frozen=True)
class SelectStep:
    """``[[exec]]`` — index by the coordinates of a scheduled execution resource."""

    exec_var: str


@dataclass(frozen=True)
class NatIdxStep:
    """``[n]`` with a statically known (nat) index."""

    nat: Nat


@dataclass(frozen=True)
class SlotIdxStep:
    """``[e]`` with a runtime index taken from a slot."""

    slot: int


PlaceStep = Union[ViewStep, ProjStep, SelectStep, NatIdxStep, SlotIdxStep]


@dataclass(frozen=True)
class PlaceIR:
    """A lowered place expression: a root slot plus a chain of data steps.

    ``text`` preserves the surface syntax of the place for diagnostics (the
    runtime error messages must match the reference interpreter's).
    """

    root: int
    root_name: str
    steps: Tuple[PlaceStep, ...]
    text: str


# ---------------------------------------------------------------------------
# Expression ops (each writes one result slot)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstOp:
    """``%out <- const v`` — a literal value."""

    out: int
    value: Any


@dataclass(frozen=True)
class NatOp:
    """``%out <- nat η`` — evaluate a nat under the launch's nat environment."""

    out: int
    nat: Nat


@dataclass(frozen=True)
class ReadOp:
    """``%out <- read p`` — read a place (a batched load for element places)."""

    out: int
    place: PlaceIR


@dataclass(frozen=True)
class BorrowOp:
    """``%out <- borrow p`` — reborrow a memory region (no data movement)."""

    out: int
    place: PlaceIR


@dataclass(frozen=True)
class AllocOp:
    """``%out <- alloc`` — shared (per block) or local (per thread) memory.

    ``alloc_id`` is a stable per-plan counter: re-evaluating the same alloc
    site (a loop body) reuses the one pooled shared buffer, mirroring the
    reference interpreter's per-term pooling without depending on ``id()``.
    """

    out: int
    space: str  # "gpu.shared" | "gpu.local"
    ty: DataType
    alloc_id: int


@dataclass(frozen=True)
class ArithOp:
    """``%out <- %lhs op %rhs`` for ``+ - * / %`` (records one arith per lane)."""

    out: int
    op: str
    lhs: int
    rhs: int


@dataclass(frozen=True)
class FusedArithOp:
    """Two adjacent arith ops fused into one dispatch (records two ariths).

    Computes ``inner = %inner_lhs inner_op %inner_rhs`` and then
    ``%out = inner outer_op %other`` (or ``%other outer_op inner`` when
    ``inner_is_lhs`` is false).  Produced by the ``fuse-arith`` pass; the
    cost accounting is identical to the unfused pair because arithmetic is
    a pure per-lane counter.
    """

    out: int
    inner_op: str
    inner_lhs: int
    inner_rhs: int
    outer_op: str
    other: int
    inner_is_lhs: bool


@dataclass(frozen=True)
class CompareOp:
    """``%out <- %lhs cmp %rhs`` for ``< <= > >= == !=`` (no arith cost)."""

    out: int
    op: str
    lhs: int
    rhs: int


@dataclass(frozen=True)
class LogicOp:
    """``%out <- %lhs && %rhs`` / ``||`` — eager, like both engines."""

    out: int
    op: str
    lhs: int
    rhs: int


@dataclass(frozen=True)
class NegOp:
    """``%out <- -%operand`` (records one arith per lane)."""

    out: int
    operand: int


@dataclass(frozen=True)
class NotOp:
    """``%out <- !%operand`` (no arith cost)."""

    out: int
    operand: int


# ---------------------------------------------------------------------------
# Statement ops
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StoreOp:
    """``store p <- %value`` — assignment (masked merge for scalar locals)."""

    place: PlaceIR
    value: int


@dataclass(frozen=True)
class IfOp:
    """Branch on a slot; array conditions run both arms under lane masks."""

    cond: int
    then_ops: Tuple["PlanOp", ...]
    else_ops: Optional[Tuple["PlanOp", ...]]


@dataclass(frozen=True)
class ForNatOp:
    """``for var in lo..hi`` over a nat range (uniform across the grid)."""

    var: str
    lo: Nat
    hi: Nat
    body: Tuple["PlanOp", ...]


@dataclass(frozen=True)
class ForEachOp:
    """``for %var in %collection`` over the outer dimension of an array."""

    var: int
    var_name: str
    collection: int
    body: Tuple["PlanOp", ...]


@dataclass(frozen=True)
class SchedOp:
    """``sched(dims) binder { body }`` — bind execution coordinates."""

    binder: str
    dims: Tuple[DimName, ...]
    body: Tuple["PlanOp", ...]


@dataclass(frozen=True)
class SplitOp:
    """``split dim @ pos { first } { second }`` — partition the hierarchy."""

    dim: DimName
    pos: Nat
    first: Tuple["PlanOp", ...]
    second: Tuple["PlanOp", ...]


@dataclass(frozen=True)
class SyncOp:
    """``sync`` — one grid-wide barrier epoch (never under divergence)."""


PlanOp = Union[
    ConstOp,
    NatOp,
    ReadOp,
    BorrowOp,
    AllocOp,
    ArithOp,
    FusedArithOp,
    CompareOp,
    LogicOp,
    NegOp,
    NotOp,
    StoreOp,
    IfOp,
    ForNatOp,
    ForEachOp,
    SchedOp,
    SplitOp,
    SyncOp,
]

#: Expression ops with no side effects (no memory access, no arith cost):
#: the dead-slot pass may delete them when their result slot is never read.
PURE_OPS = (ConstOp, NatOp, CompareOp, LogicOp, NotOp)


@dataclass(frozen=True)
class DevicePlan:
    """A GPU Descend function lowered to the serializable plan IR.

    ``params`` names the function parameters, which occupy slots
    ``0..len(params)-1`` of the register file; ``slot_names`` is the full
    slot table (empty string for anonymous temporaries).  Everything inside
    is frozen plain data: plans pickle, hash, and compare structurally.
    """

    fun_name: str
    level: GpuGridLevel
    params: Tuple[str, ...]
    slot_names: Tuple[str, ...]
    body: Tuple[PlanOp, ...]

    @property
    def n_slots(self) -> int:
        return len(self.slot_names)


# ---------------------------------------------------------------------------
# Disassembler
# ---------------------------------------------------------------------------


def _render_place(place: PlaceIR) -> str:
    text = place.root_name
    for step in place.steps:
        if isinstance(step, ViewStep):
            text += f".{step.ref}"
        elif isinstance(step, ProjStep):
            text += ".fst" if step.index == 0 else ".snd"
        elif isinstance(step, SelectStep):
            text += f"[[{step.exec_var}]]"
        elif isinstance(step, NatIdxStep):
            text += f"[{step.nat}]"
        else:  # SlotIdxStep
            text += f"[%{step.slot}]"
    return text


def _render_op(op: PlanOp, lines, indent: int) -> None:
    pad = "  " * indent
    if isinstance(op, ConstOp):
        lines.append(f"{pad}%{op.out} <- const {op.value!r}")
    elif isinstance(op, NatOp):
        lines.append(f"{pad}%{op.out} <- nat {op.nat}")
    elif isinstance(op, ReadOp):
        lines.append(f"{pad}%{op.out} <- read {_render_place(op.place)}")
    elif isinstance(op, BorrowOp):
        lines.append(f"{pad}%{op.out} <- borrow {_render_place(op.place)}")
    elif isinstance(op, AllocOp):
        lines.append(f"{pad}%{op.out} <- alloc {op.space} {op.ty} #{op.alloc_id}")
    elif isinstance(op, ArithOp):
        lines.append(f"{pad}%{op.out} <- arith %{op.lhs} {op.op} %{op.rhs}")
    elif isinstance(op, FusedArithOp):
        inner = f"(%{op.inner_lhs} {op.inner_op} %{op.inner_rhs})"
        expr = (
            f"{inner} {op.outer_op} %{op.other}"
            if op.inner_is_lhs
            else f"%{op.other} {op.outer_op} {inner}"
        )
        lines.append(f"{pad}%{op.out} <- fused {expr}")
    elif isinstance(op, CompareOp):
        lines.append(f"{pad}%{op.out} <- cmp %{op.lhs} {op.op} %{op.rhs}")
    elif isinstance(op, LogicOp):
        lines.append(f"{pad}%{op.out} <- logic %{op.lhs} {op.op} %{op.rhs}")
    elif isinstance(op, NegOp):
        lines.append(f"{pad}%{op.out} <- neg %{op.operand}")
    elif isinstance(op, NotOp):
        lines.append(f"{pad}%{op.out} <- not %{op.operand}")
    elif isinstance(op, StoreOp):
        lines.append(f"{pad}store {_render_place(op.place)} <- %{op.value}")
    elif isinstance(op, IfOp):
        lines.append(f"{pad}if %{op.cond} {{")
        _render_ops(op.then_ops, lines, indent + 1)
        if op.else_ops is not None:
            lines.append(f"{pad}}} else {{")
            _render_ops(op.else_ops, lines, indent + 1)
        lines.append(f"{pad}}}")
    elif isinstance(op, ForNatOp):
        lines.append(f"{pad}for {op.var} in nat {op.lo}..{op.hi} {{")
        _render_ops(op.body, lines, indent + 1)
        lines.append(f"{pad}}}")
    elif isinstance(op, ForEachOp):
        lines.append(f"{pad}for %{op.var} ({op.var_name}) in %{op.collection} {{")
        _render_ops(op.body, lines, indent + 1)
        lines.append(f"{pad}}}")
    elif isinstance(op, SchedOp):
        dims = ",".join(d.name for d in op.dims)
        lines.append(f"{pad}sched({dims}) {op.binder} {{")
        _render_ops(op.body, lines, indent + 1)
        lines.append(f"{pad}}}")
    elif isinstance(op, SplitOp):
        lines.append(f"{pad}split {op.dim.name} @ {op.pos} {{")
        _render_ops(op.first, lines, indent + 1)
        lines.append(f"{pad}}} {{")
        _render_ops(op.second, lines, indent + 1)
        lines.append(f"{pad}}}")
    elif isinstance(op, SyncOp):
        lines.append(f"{pad}sync")
    else:  # pragma: no cover - keep the disassembler total over the op union
        lines.append(f"{pad}<unknown op {type(op).__name__}>")


def _render_ops(ops, lines, indent: int) -> None:
    for op in ops:
        _render_op(op, lines, indent)


def disassemble(plan: DevicePlan) -> str:
    """Deterministic textual form of a plan (debugging, golden tests)."""
    lines = [f"plan {plan.fun_name} exec {plan.level.describe()}"]
    params = ", ".join(f"%{i}={name}" for i, name in enumerate(plan.params)) or "(none)"
    lines.append(f"params: {params}")
    named = ", ".join(
        f"%{i}={name}"
        for i, name in enumerate(plan.slot_names)
        if name and i >= len(plan.params)
    )
    lines.append(f"slots: {plan.n_slots}" + (f" ({named})" if named else ""))
    lines.append("body:")
    _render_ops(plan.body, lines, 1)
    return "\n".join(lines) + "\n"
