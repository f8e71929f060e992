"""Lowering type-checked GPU functions to the plan IR.

This is stage one of the device-plan pipeline (the other two are
:mod:`repro.descend.plan.optimize` and :mod:`repro.descend.plan.codegen`).
It walks the AST once and emits a flat tuple of frozen dataclass ops over an
explicit slot table:

* expressions flatten into ops that write numbered slots (fresh temporaries
  per op site, compacted later by the dead-slot pass);
* name resolution is done *here*, lexically: every ``let``/parameter/loop
  binding gets its own slot, so shadowing costs nothing at run time and the
  executor never looks names up in a dict;
* place expressions become :class:`~repro.descend.plan.ir.PlaceIR` chains
  whose runtime index sub-expressions are lowered into the surrounding op
  sequence (in chain order — the access order the race detector sees must
  match the reference interpreter exactly);
* constructs whose batched semantics would diverge from the reference
  engine (``sync`` nested under ``split`` or a per-thread ``if``), and
  structured statements nested deeper than :data:`MAX_NESTING`, raise
  :class:`PlanUnsupported`, and the kernel launcher falls back to the
  per-thread reference interpreter for that function.  Every plan this
  stage returns is one the codegen stage compiles.

The lowering performs no optimization and embeds no callables: its output
pickles directly into the artifact store.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.descend.ast import terms as T
from repro.descend.ast.exec_level import GpuGridLevel
from repro.descend.ast.places import PDeref, PIdx, PProj, PSelect, PVar, PView, PlaceExpr
from repro.descend.nat import Nat
from repro.descend.plan.ir import (
    AllocOp,
    ArithOp,
    BorrowOp,
    CompareOp,
    ConstOp,
    DevicePlan,
    ForEachOp,
    ForNatOp,
    IfOp,
    LogicOp,
    NatIdxStep,
    NatOp,
    NegOp,
    NotOp,
    PlaceIR,
    PlaceStep,
    PlanOp,
    ProjStep,
    ReadOp,
    SchedOp,
    SelectStep,
    SlotIdxStep,
    SplitOp,
    StoreOp,
    SyncOp,
    ViewStep,
)
from repro.errors import DescendError

_ARITH_OPS = ("+", "-", "*", "/", "%")
_COMPARE_OPS = ("<", "<=", ">", ">=", "==", "!=")

#: Deepest nesting of structured ops (``if``, ``for``, ``sched``, ``split``)
#: a plan may have.  Each level costs the generated source at most one
#: statically nested block and two indentation levels, so this bound keeps
#: it inside CPython's limits (20 nested blocks, about 100 indentation
#: levels).  The deepest Figure 8 program, matmul, nests 6.
MAX_NESTING = 16


class PlanUnsupported(DescendError):
    """A construct the device-plan compiler cannot lower; callers fall back."""


class _Lowerer:
    """Single-use AST walker: slot allocation, lexical scoping, op emission."""

    def __init__(self, fun_def: T.FunDef) -> None:
        self.fun_def = fun_def
        self.slot_names: List[str] = []
        self.scope: Dict[str, List[int]] = {}
        self.alloc_counter = 0
        self.ops: List[PlanOp] = []
        self.depth = 0

    # -- slots & scoping -------------------------------------------------------
    def new_slot(self, name: str = "") -> int:
        self.slot_names.append(name)
        return len(self.slot_names) - 1

    def bind(self, name: str, slot: int) -> None:
        self.scope.setdefault(name, []).append(slot)
        if not self.slot_names[slot]:
            self.slot_names[slot] = name

    def unbind(self, name: str) -> None:
        self.scope[name].pop()
        if not self.scope[name]:
            del self.scope[name]

    def lookup(self, name: str) -> int:
        stack = self.scope.get(name)
        if not stack:
            raise PlanUnsupported(f"unbound variable `{name}` in device plan")
        return stack[-1]

    def emit(self, op: PlanOp) -> None:
        self.ops.append(op)

    def nested(self, lower) -> Tuple[PlanOp, ...]:
        """Lower into a fresh op sequence (the body of a structured op)."""
        if self.depth == MAX_NESTING:
            raise PlanUnsupported(
                f"structured statements nest deeper than {MAX_NESTING} levels"
            )
        saved, self.ops = self.ops, []
        self.depth += 1
        try:
            lower()
            return tuple(self.ops)
        finally:
            self.ops = saved
            self.depth -= 1

    # -- places ----------------------------------------------------------------
    def lower_place(self, place: PlaceExpr) -> PlaceIR:
        parts = place.parts()
        root = parts[0]
        assert isinstance(root, PVar)
        steps: List[PlaceStep] = []
        for part in parts[1:]:
            if isinstance(part, PDeref):
                continue
            if isinstance(part, PView):
                steps.append(ViewStep(part.ref))
            elif isinstance(part, PProj):
                steps.append(ProjStep(part.index))
            elif isinstance(part, PSelect):
                steps.append(SelectStep(part.exec_var))
            elif isinstance(part, PIdx):
                if isinstance(part.index, Nat):
                    steps.append(NatIdxStep(part.index))
                else:
                    # Runtime indices evaluate in chain order: their ops are
                    # emitted here, before the access op that consumes the
                    # finished chain.
                    steps.append(SlotIdxStep(self.lower_expr(part.index)))
            else:
                raise PlanUnsupported(f"unsupported place expression step {part}")
        return PlaceIR(
            root=self.lookup(root.name),
            root_name=root.name,
            steps=tuple(steps),
            text=str(place),
        )

    # -- expressions -----------------------------------------------------------
    def lower_expr(self, term: T.Term) -> int:
        """Emit the ops of one expression; returns the result slot."""
        if isinstance(term, T.Lit):
            out = self.new_slot()
            self.emit(ConstOp(out, term.value))
            return out
        if isinstance(term, T.NatTerm):
            out = self.new_slot()
            self.emit(NatOp(out, term.nat))
            return out
        if isinstance(term, T.PlaceTerm):
            place = self.lower_place(term.place)
            out = self.new_slot()
            self.emit(ReadOp(out, place))
            return out
        if isinstance(term, T.Borrow):
            place = self.lower_place(term.place)
            out = self.new_slot()
            self.emit(BorrowOp(out, place))
            return out
        if isinstance(term, T.BinaryOp):
            return self.lower_binary(term)
        if isinstance(term, T.UnaryOp):
            operand = self.lower_expr(term.operand)
            out = self.new_slot()
            if term.op == "-":
                self.emit(NegOp(out, operand))
            elif term.op == "!":
                self.emit(NotOp(out, operand))
            else:
                raise PlanUnsupported(f"unsupported unary operator {term.op}")
            return out
        if isinstance(term, T.Alloc):
            return self.lower_alloc(term)
        if isinstance(term, T.FnApp):
            raise PlanUnsupported(
                f"function calls on the GPU are inlined before execution; "
                f"cannot lower call to `{term.name}`"
            )
        raise PlanUnsupported(f"cannot lower term {term}")

    def lower_binary(self, term: T.BinaryOp) -> int:
        lhs = self.lower_expr(term.lhs)
        rhs = self.lower_expr(term.rhs)
        out = self.new_slot()
        if term.op in _ARITH_OPS:
            self.emit(ArithOp(out, term.op, lhs, rhs))
        elif term.op in _COMPARE_OPS:
            self.emit(CompareOp(out, term.op, lhs, rhs))
        elif term.op in ("&&", "||"):
            # Both engines evaluate both operands eagerly (no short-circuit).
            self.emit(LogicOp(out, term.op, lhs, rhs))
        else:
            raise PlanUnsupported(f"unsupported binary operator {term.op}")
        return out

    def lower_alloc(self, term: T.Alloc) -> int:
        mem_name = str(term.mem)
        if mem_name not in ("gpu.shared", "gpu.local"):
            raise PlanUnsupported(f"cannot allocate `{term.mem}` memory on the GPU")
        out = self.new_slot()
        self.emit(AllocOp(out, mem_name, term.ty, self.alloc_counter))
        self.alloc_counter += 1
        return out

    # -- statements ------------------------------------------------------------
    def lower_stmt(self, term: T.Term, divergent: bool = False) -> None:
        if isinstance(term, T.Block):
            # Bindings introduced by the block go out of (lexical) scope at
            # its end; slots are per-binding, so shadowing resolves here and
            # mutations of outer variables naturally survive.
            introduced: List[str] = []
            try:
                for stmt in term.stmts:
                    self.lower_stmt(stmt, divergent)
                    if isinstance(stmt, T.LetTerm):
                        introduced.append(stmt.name)
            finally:
                for name in reversed(introduced):
                    self.unbind(name)
            return
        if isinstance(term, T.LetTerm):
            # The initializer is lowered in the *outer* scope (`let x = x+1`
            # reads the shadowed binding), then its result slot becomes the
            # new binding.
            slot = self.lower_expr(term.init)
            self.bind(term.name, slot)
            return
        if isinstance(term, T.Assign):
            value = self.lower_expr(term.value)
            place = self.lower_place(term.place)
            self.emit(StoreOp(place, value))
            return
        if isinstance(term, T.IfTerm):
            if T.contains_sync(term):
                raise PlanUnsupported(
                    "`sync` under a per-thread `if` needs the reference engine's "
                    "barrier-divergence detection"
                )
            cond = self.lower_expr(term.cond)
            then_ops = self.nested(lambda: self.lower_stmt(term.then, divergent=True))
            else_ops = (
                self.nested(lambda: self.lower_stmt(term.otherwise, divergent=True))
                if term.otherwise is not None
                else None
            )
            self.emit(IfOp(cond, then_ops, else_ops))
            return
        if isinstance(term, T.ForNat):
            body = self.nested(lambda: self.lower_stmt(term.body, divergent))
            self.emit(ForNatOp(term.var, term.lo, term.hi, body))
            return
        if isinstance(term, T.ForEach):
            collection = self.lower_expr(term.collection)
            var_slot = self.new_slot(term.var)
            self.bind(term.var, var_slot)
            try:
                body = self.nested(lambda: self.lower_stmt(term.body, divergent))
            finally:
                self.unbind(term.var)
            self.emit(ForEachOp(var_slot, term.var, collection, body))
            return
        if isinstance(term, T.Sched):
            body = self.nested(lambda: self.lower_stmt(term.body, divergent))
            self.emit(SchedOp(term.binder, tuple(term.dims), body))
            return
        if isinstance(term, T.SplitExec):
            if T.contains_sync(term):
                raise PlanUnsupported(
                    "`sync` under `split` needs the reference engine's "
                    "barrier-divergence detection"
                )
            first = self.nested(lambda: self.lower_stmt(term.first_body, divergent=True))
            second = self.nested(lambda: self.lower_stmt(term.second_body, divergent=True))
            self.emit(SplitOp(term.dim, term.pos, first, second))
            return
        if isinstance(term, T.Sync):
            if divergent:
                raise PlanUnsupported(
                    "`sync` under divergent control flow needs the reference engine"
                )
            self.emit(SyncOp())
            return
        # expression statements: evaluate for effects, discard the value
        self.lower_expr(term)

    # -- entry -----------------------------------------------------------------
    def lower(self) -> DevicePlan:
        level = self.fun_def.exec_spec.level
        if not isinstance(level, GpuGridLevel):
            raise PlanUnsupported(f"`{self.fun_def.name}` is not a GPU grid function")
        params = tuple(p.name for p in self.fun_def.params)
        for name in params:
            self.bind(name, self.new_slot(name))
        self.lower_stmt(self.fun_def.body)
        return DevicePlan(
            fun_name=self.fun_def.name,
            level=level,
            params=params,
            slot_names=tuple(self.slot_names),
            body=tuple(self.ops),
        )


def lower_device_plan(fun_def: T.FunDef) -> DevicePlan:
    """Lower one GPU Descend function to (unoptimized) plan IR.

    Raises :class:`PlanUnsupported` when the function uses a construct whose
    batched execution could diverge from the reference semantics, or nests
    structured statements deeper than :data:`MAX_NESTING`.
    """
    return _Lowerer(fun_def).lower()


def compile_device_plan(fun_def: T.FunDef, optimize: bool = True) -> DevicePlan:
    """Lower one GPU function and (by default) run the IR pass pipeline."""
    plan = lower_device_plan(fun_def)
    if optimize:
        from repro.descend.plan.optimize import optimize_plan

        plan, _detail = optimize_plan(plan)
    return plan
