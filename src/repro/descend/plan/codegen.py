"""The ``lower.plan.codegen`` pass: plan IR → straight-line Python source.

Generated source is the only batched executor of a device plan: both the
``vectorized`` and the ``jit`` engine run it, and they differ only in how
they account for cost and races.  The pass walks the optimized IR once and
emits a real Python function in which

* the slot table becomes local variables (``s0``, ``s1``, …),
* structured ``for-nat``/``for-each``/``if``/``sched``/``split`` ops become
  real ``for``/``if`` statements over masked numpy expressions, each body
  emitted exactly once, so the source grows linearly with the plan,
* the ``ctx.arith`` / access-recording hooks are inlined at every
  arithmetic and memory op, so cycle and race accounting stays **exact** —
  the per-thread reference interpreter is the parity oracle, and the
  differential tests assert byte-identical cycle counts and race reports.

The pass is total over every plan the lowering accepts; the lowering bounds
structured-op nesting (:data:`~repro.descend.plan.lower.MAX_NESTING`) so the
emitted function stays inside CPython's static block and indentation limits.

The emitted source is plain data: :class:`PlanSource` pickles into the
artifact store as a first-class ``plan-src`` artifact beside the plan IR, so
warm sessions and sweep workers load pre-built code with zero codegen
passes.  ``compile()`` of the source happens at most once per process per
distinct source text (:func:`_materialize`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

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
    PlaceIR,
    ReadOp,
    SchedOp,
    SlotIdxStep,
    SplitOp,
    StoreOp,
    SyncOp,
)

@dataclass(frozen=True)
class PlanSource:
    """The generated Python source of one device plan (a store artifact).

    ``source`` is self-contained but *parameterized*: the function it defines
    takes ``(ctx, args, _env, C, rt)`` where ``C`` is :attr:`consts` (the
    plan's non-literal constants — places, nats, types, level) and ``rt`` is
    :mod:`repro.descend.plan.runtime`.  Keeping the constants out of the text
    keeps the source printable/diffable and the pickle compact.
    """

    fun_name: str
    entry_name: str
    source: str
    consts: Tuple[Any, ...]

    def entry(self, nat_env, args):
        """A kernel closure over one launch's arguments.

        The returned callable is what the ``vectorized`` and ``jit`` engines
        execute against a grid-wide ``VecCtx``.
        """
        # Imported here (not at module top): the runtime pulls in the
        # interpreter package, which itself imports this package.
        from repro.descend.plan import runtime as _rt

        fn = _materialize(self)
        consts = self.consts

        def plan_kernel(ctx) -> None:
            fn(ctx, args, nat_env, consts, _rt)

        plan_kernel.__name__ = f"{self.fun_name}_plan"
        return plan_kernel


#: Per-process cache of compiled entry functions, keyed by source text: the
#: generated functions close over nothing (everything arrives as parameters),
#: so two structurally identical plans share one code object.
_FUNC_CACHE: Dict[str, Callable] = {}
_FUNC_CACHE_MAX = 256


def _materialize(plan_src: PlanSource) -> Callable:
    fn = _FUNC_CACHE.get(plan_src.source)
    if fn is None:
        code = compile(plan_src.source, f"<plan-jit:{plan_src.fun_name}>", "exec")
        namespace: Dict[str, Any] = {}
        exec(code, namespace)  # noqa: S102 - compiling our own generated source
        fn = namespace[plan_src.entry_name]
        if len(_FUNC_CACHE) >= _FUNC_CACHE_MAX:
            _FUNC_CACHE.pop(next(iter(_FUNC_CACHE)))
        _FUNC_CACHE[plan_src.source] = fn
    return fn


def _entry_name(fun_name: str) -> str:
    safe = re.sub(r"\W", "_", fun_name) or "plan"
    return f"_{safe}_jit"


# ---------------------------------------------------------------------------
# The emitter
# ---------------------------------------------------------------------------


@dataclass
class _Emitter:
    lines: List[str] = field(default_factory=list)
    consts: List[Any] = field(default_factory=list)
    _const_ids: Dict[int, int] = field(default_factory=dict)
    _tmp: int = 0

    def emit(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def const(self, value: Any) -> str:
        """Reference ``value`` through the constant pool (identity-deduped)."""
        index = self._const_ids.get(id(value))
        if index is None:
            index = len(self.consts)
            self.consts.append(value)  # the list pins id(value) for the dict key
            self._const_ids[id(value)] = index
        return f"C[{index}]"

    def fresh(self) -> str:
        self._tmp += 1
        return str(self._tmp)


def _inline_literal(value: Any) -> str:
    """A source literal for a const, or '' when it must go through the pool."""
    if value is True or value is False or value is None:
        return repr(value)
    if type(value) is int:
        return repr(value)
    if type(value) is float and value == value and value not in (float("inf"), float("-inf")):
        return repr(value)  # repr of a finite float round-trips exactly
    return ""


def _binop(op: str, lhs: str, rhs: str) -> str:
    """An arithmetic expression matching the reference interpreter's."""
    if op == "/":
        return f"rt.div({lhs}, {rhs})"
    if op in ("+", "-", "*", "%"):
        return f"({lhs} {op} {rhs})"
    raise ValueError(f"no code generator for arithmetic operator {op!r}")


_COMPARE_OPS = ("<", "<=", ">", ">=", "==", "!=")


def _place_call_args(em: _Emitter, place: PlaceIR) -> Tuple[str, str, str]:
    """``(place_const, root_local, slot_index_tuple)`` for a place helper call."""
    slots = [step.slot for step in place.steps if isinstance(step, SlotIdxStep)]
    if not slots:
        idxs = "()"
    elif len(slots) == 1:
        idxs = f"(s{slots[0]},)"
    else:
        idxs = "(" + ", ".join(f"s{slot}" for slot in slots) + ")"
    return em.const(place), f"s{place.root}", idxs


def _emit_ops(em: _Emitter, ops, indent: int) -> None:
    if not ops:
        em.emit(indent, "pass")
        return
    for op in ops:
        _emit_op(em, op, indent)


def _emit_op(em: _Emitter, op, indent: int) -> None:  # noqa: PLR0915, PLR0912
    if isinstance(op, ConstOp):
        literal = _inline_literal(op.value)
        if literal:
            em.emit(indent, f"s{op.out} = {literal}")
        else:
            em.emit(indent, f"s{op.out} = {em.const(op.value)}  # const {op.value!r}")
    elif isinstance(op, NatOp):
        em.emit(indent, f"s{op.out} = _natf({em.const(op.nat)})  # nat {op.nat}")
    elif isinstance(op, ReadOp):
        place, root, idxs = _place_call_args(em, op.place)
        em.emit(
            indent,
            f"s{op.out} = rt.read({place}, {root}, {idxs}, _natf, _coords, ctx, _mask)"
            f"  # read {op.place.text}",
        )
    elif isinstance(op, BorrowOp):
        place, root, idxs = _place_call_args(em, op.place)
        em.emit(
            indent,
            f"s{op.out} = rt.borrow({place}, {root}, {idxs}, _natf, _coords)"
            f"  # borrow {op.place.text}",
        )
    elif isinstance(op, AllocOp):
        em.emit(
            indent,
            f"s{op.out} = rt.alloc({em.const(op)}, _env, ctx)"
            f"  # alloc {op.space} #{op.alloc_id}",
        )
    elif isinstance(op, ArithOp):
        em.emit(indent, "ctx.arith(1, where=_mask)")
        em.emit(indent, f"s{op.out} = {_binop(op.op, f's{op.lhs}', f's{op.rhs}')}")
    elif isinstance(op, FusedArithOp):
        inner = _binop(op.inner_op, f"s{op.inner_lhs}", f"s{op.inner_rhs}")
        if op.inner_is_lhs:
            expr = _binop(op.outer_op, inner, f"s{op.other}")
        else:
            expr = _binop(op.outer_op, f"s{op.other}", inner)
        em.emit(indent, "ctx.arith(2, where=_mask)")
        em.emit(indent, f"s{op.out} = {expr}")
    elif isinstance(op, CompareOp):
        if op.op not in _COMPARE_OPS:
            raise ValueError(f"no code generator for comparison {op.op!r}")
        em.emit(indent, f"s{op.out} = (s{op.lhs} {op.op} s{op.rhs})")
    elif isinstance(op, LogicOp):
        helper = "rt.logic_and" if op.op == "&&" else "rt.logic_or"
        em.emit(indent, f"s{op.out} = {helper}(s{op.lhs}, s{op.rhs})")
    elif isinstance(op, NegOp):
        em.emit(indent, "ctx.arith(1, where=_mask)")
        em.emit(indent, f"s{op.out} = -s{op.operand}")
    elif isinstance(op, NotOp):
        em.emit(indent, f"s{op.out} = rt.logic_not(s{op.operand})")
    elif isinstance(op, StoreOp):
        place, root, idxs = _place_call_args(em, op.place)
        em.emit(
            indent,
            f"{root} = rt.store({place}, {root}, {idxs}, s{op.value}, "
            f"_natf, _coords, ctx, _mask)  # store {op.place.text}",
        )
    elif isinstance(op, IfOp):
        _emit_if(em, op, indent)
    elif isinstance(op, ForNatOp):
        n = em.fresh()
        em.emit(indent, f"_lo{n} = _natf({em.const(op.lo)})  # {op.lo}")
        em.emit(indent, f"_hi{n} = _natf({em.const(op.hi)})  # {op.hi}")
        em.emit(indent, f"_pv{n} = _env.get({op.var!r})")
        em.emit(indent, f"for _i{n} in range(_lo{n}, _hi{n}):  # for {op.var}")
        em.emit(indent + 1, f"_env[{op.var!r}] = _i{n}")
        _emit_ops(em, op.body, indent + 1)
        em.emit(indent, f"if _pv{n} is None:")
        em.emit(indent + 1, f"_env.pop({op.var!r}, None)")
        em.emit(indent, "else:")
        em.emit(indent + 1, f"_env[{op.var!r}] = _pv{n}")
    elif isinstance(op, ForEachOp):
        n = em.fresh()
        em.emit(indent, f"_cl{n} = s{op.collection}")
        em.emit(
            indent,
            f"for _i{n} in range(rt.foreach_size(_cl{n})):  # for {op.var_name}",
        )
        em.emit(indent + 1, f"s{op.var} = rt.foreach_element(_cl{n}, _i{n}, ctx, _mask)")
        _emit_ops(em, op.body, indent + 1)
    elif isinstance(op, SchedOp):
        n = em.fresh()
        dims = ",".join(d.name for d in op.dims)
        em.emit(
            indent,
            f"_sc{n} = rt.sched_enter({em.const(op)}, _bw, _tw, _pb, _pt, _coords, ctx)"
            f"  # sched({dims}) {op.binder}",
        )
        em.emit(indent, "try:")
        _emit_ops(em, op.body, indent + 1)
        em.emit(indent, "finally:")
        em.emit(indent + 1, f"rt.sched_exit({em.const(op)}, _sc{n}, _coords)")
    elif isinstance(op, SplitOp):
        _emit_split(em, op, indent)
    elif isinstance(op, SyncOp):
        em.emit(
            indent,
            'assert _mask is None, "sync under an active mask escaped lowering checks"',
        )
        em.emit(indent, "ctx.sync()")
    else:
        raise TypeError(f"no code generator for op {type(op).__name__}")


def _emit_if(em: _Emitter, op: IfOp, indent: int) -> None:
    """Branch on a slot, emitting each arm once.

    A run flag and a mask per arm are computed before either arm runs: an
    array condition narrows ``_mask`` to the lanes taking the arm (and skips
    an arm no active lane takes), a uniform scalar condition keeps ``_mask``
    and runs exactly one arm.
    """
    n = em.fresh()
    c = f"s{op.cond}"
    has_else = op.else_ops is not None
    em.emit(indent, f"_om{n} = _mask")
    em.emit(indent, f"if isinstance({c}, rt.ndarray):")
    em.emit(indent + 1, f"_tm{n} = {c} if _om{n} is None else (_om{n} & {c})")
    em.emit(indent + 1, f"_tr{n} = _tm{n}.any()")
    if has_else:
        em.emit(indent + 1, f"_em{n} = ~{c} if _om{n} is None else (_om{n} & ~{c})")
        em.emit(indent + 1, f"_er{n} = _em{n}.any()")
    em.emit(indent, "else:")
    em.emit(indent + 1, f"_tm{n} = _em{n} = _om{n}" if has_else else f"_tm{n} = _om{n}")
    em.emit(indent + 1, f"_tr{n} = bool({c})")
    if has_else:
        em.emit(indent + 1, f"_er{n} = not _tr{n}")
    _emit_masked_arm(em, f"_tr{n}", f"_tm{n}", f"_om{n}", op.then_ops, indent)
    if has_else:
        _emit_masked_arm(em, f"_er{n}", f"_em{n}", f"_om{n}", op.else_ops, indent)


def _emit_masked_arm(em: _Emitter, run: str, mask: str, outer: str, ops, indent: int) -> None:
    em.emit(indent, f"if {run}:")
    em.emit(indent + 1, f"_mask = {mask}")
    em.emit(indent + 1, "try:")
    _emit_ops(em, ops, indent + 2)
    em.emit(indent + 1, "finally:")
    em.emit(indent + 2, f"_mask = {outer}")


def _emit_split(em: _Emitter, op: SplitOp, indent: int) -> None:
    n = em.fresh()
    oc = em.const(op)
    em.emit(
        indent,
        f"_w{n}, _lo{n}, _hi{n}, _ps{n}, _fc{n} = "
        f"rt.split_enter({oc}, _bw, _tw, _pb, _natf, ctx)"
        f"  # split {op.dim.name} @ {op.pos}",
    )
    em.emit(indent, f"_om{n} = _mask")
    em.emit(indent, f"_fm{n} = _fc{n} if _om{n} is None else (_om{n} & _fc{n})")
    em.emit(indent, f"if _fm{n}.any():")
    em.emit(indent + 1, f"_w{n}[{oc}.dim] = [_lo{n}, _lo{n} + _ps{n}]")
    em.emit(indent + 1, f"_mask = _fm{n}")
    em.emit(indent + 1, "try:")
    _emit_ops(em, op.first, indent + 2)
    em.emit(indent + 1, "finally:")
    em.emit(indent + 2, f"_w{n}[{oc}.dim] = [_lo{n}, _hi{n}]")
    em.emit(indent + 2, f"_mask = _om{n}")
    em.emit(indent, f"_sm{n} = ~_fc{n} if _om{n} is None else (_om{n} & ~_fc{n})")
    em.emit(indent, f"if _sm{n}.any():")
    em.emit(indent + 1, f"_w{n}[{oc}.dim] = [_lo{n} + _ps{n}, _hi{n}]")
    em.emit(indent + 1, f"_mask = _sm{n}")
    em.emit(indent + 1, "try:")
    _emit_ops(em, op.second, indent + 2)
    em.emit(indent + 1, "finally:")
    em.emit(indent + 2, f"_w{n}[{oc}.dim] = [_lo{n}, _hi{n}]")
    em.emit(indent + 2, f"_mask = _om{n}")


def generate_plan_source(plan: DevicePlan) -> PlanSource:
    """Compile one optimized device plan to a :class:`PlanSource`.

    Deterministic: the same plan always yields the same source text and
    constant pool (golden-source tests rely on this).
    """
    em = _Emitter()
    entry_name = _entry_name(plan.fun_name)
    em.emit(0, f"# plan-jit source for `{plan.fun_name}` "
               f"(exec {plan.level.describe()}, {plan.n_slots} slots)")
    em.emit(0, f"def {entry_name}(ctx, args, _env, C, rt):")
    em.emit(1, "_env = dict(_env)")
    em.emit(1, "_natf = rt.natf(_env)")
    em.emit(1, "_mask = None")
    em.emit(1, "_coords = {}")
    em.emit(1, f"_bw, _tw, _pb, _pt = rt.init_windows({em.const(plan.level)}, _env)")
    for index, name in enumerate(plan.params):
        em.emit(1, f"s{index} = rt.arg(args, {name!r})")
    spare = [f"s{i}" for i in range(len(plan.params), plan.n_slots)]
    for chunk_start in range(0, len(spare), 8):
        chunk = spare[chunk_start : chunk_start + 8]
        em.emit(1, " = ".join(chunk) + " = None")
    _emit_ops(em, plan.body, 1)
    source = "\n".join(em.lines) + "\n"
    return PlanSource(
        fun_name=plan.fun_name,
        entry_name=entry_name,
        source=source,
        consts=tuple(em.consts),
    )
