"""Typing environments of the Descend type checker.

This module defines the pieces of the typing judgement's context:

* :class:`KindEnv` (Δ) — kinds of the type-level variables in scope,
* :class:`GlobalEnv` (Γg) — the types of globally accessible functions,
* :class:`LocalEnv` (Γl) — local variables with ownership information,
* :class:`Loan` (elements of Θ / the active borrows in Γl),
* :class:`AccessEnv` (A) — which execution resource accessed which place,
* :class:`SchedFrame` — one ``sched`` step (used by the narrowing check),
* :class:`TypingContext` — everything bundled together, flow-sensitively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.descend.ast.exec_level import ExecSpec
from repro.descend.ast.exec_resources import ExecResource
from repro.descend.ast.memory import Memory
from repro.descend.ast.places import PlaceExpr
from repro.descend.ast.types import DataType, FnType, Kind
from repro.descend.diagnostics import Diagnostic
from repro.descend.nat import Nat, NatConst, nat_equal
from repro.descend.source import NO_SPAN, Span
from repro.errors import DescendTypeError


# ---------------------------------------------------------------------------
# Δ — kinds of type-level variables
# ---------------------------------------------------------------------------


class KindEnv:
    """Kinds of the type-level variables currently in scope (Δ)."""

    def __init__(self) -> None:
        self._kinds: Dict[str, Kind] = {}

    def declare(self, name: str, kind: Kind) -> None:
        self._kinds[name] = kind

    def remove(self, name: str) -> None:
        self._kinds.pop(name, None)

    def kind_of(self, name: str) -> Optional[Kind]:
        return self._kinds.get(name)

    def names(self) -> Tuple[str, ...]:
        return tuple(self._kinds)

    def copy(self) -> "KindEnv":
        clone = KindEnv()
        clone._kinds = dict(self._kinds)
        return clone


# ---------------------------------------------------------------------------
# Γg — globally accessible functions
# ---------------------------------------------------------------------------


class GlobalEnv:
    """Types of globally accessible functions (Γg)."""

    def __init__(self) -> None:
        self._functions: Dict[str, FnType] = {}

    def declare(self, name: str, fn_type: FnType) -> None:
        self._functions[name] = fn_type

    def lookup(self, name: str) -> Optional[FnType]:
        return self._functions.get(name)

    def known(self, name: str) -> bool:
        return name in self._functions

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._functions))


# ---------------------------------------------------------------------------
# Γl — local variables
# ---------------------------------------------------------------------------


@dataclass
class VarInfo:
    """Information the checker tracks for every local variable."""

    name: str
    ty: DataType
    #: sched depth (number of enclosing ``sched`` steps) at which the variable
    #: was introduced; the owner of the memory it names.
    owner_depth: int
    #: address space of the memory the variable itself denotes (for allocations
    #: and boxed values); ``None`` for plain copyable locals.
    mem: Optional[Memory] = None
    is_param: bool = False
    moved: bool = False
    span: Span = NO_SPAN


@dataclass
class Loan:
    """An active borrow (element of Θ / the loan set of Γl)."""

    place: PlaceExpr
    uniq: bool
    root: str
    mem: Optional[Memory]
    depth: int
    span: Span = NO_SPAN

    def describe(self) -> str:
        kind = "unique" if self.uniq else "shared"
        return f"{kind} borrow of `{self.place}`"


class LocalEnv:
    """Scoped local variables and active loans (Γl and Θ)."""

    def __init__(self) -> None:
        self._scopes: List[Dict[str, VarInfo]] = [{}]
        self._loan_scopes: List[List[Loan]] = [[]]

    # -- scopes -----------------------------------------------------------------
    def push_scope(self) -> None:
        self._scopes.append({})
        self._loan_scopes.append([])

    def pop_scope(self) -> None:
        self._scopes.pop()
        self._loan_scopes.pop()

    # -- variables ----------------------------------------------------------------
    def declare(self, info: VarInfo) -> VarInfo:
        self._scopes[-1][info.name] = info
        return info

    def lookup(self, name: str) -> Optional[VarInfo]:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        return None

    def known(self, name: str) -> bool:
        return self.lookup(name) is not None

    def mark_moved(self, name: str) -> None:
        info = self.lookup(name)
        if info is not None:
            info.moved = True

    # -- loans ---------------------------------------------------------------------
    def add_loan(self, loan: Loan) -> Loan:
        self._loan_scopes[-1].append(loan)
        return loan

    def active_loans(self) -> List[Loan]:
        result: List[Loan] = []
        for loans in self._loan_scopes:
            result.extend(loans)
        return result

    def release_shared_memory_loans(self) -> None:
        """Drop loans of ``gpu.shared`` memory (released by a barrier)."""
        for loans in self._loan_scopes:
            loans[:] = [
                loan
                for loan in loans
                if not (loan.mem is not None and str(loan.mem) == "gpu.shared")
            ]


# ---------------------------------------------------------------------------
# A — the access environment
# ---------------------------------------------------------------------------


@dataclass
class AccessRecord:
    """One recorded access: which execution resource touched which place, how."""

    exec_res: ExecResource
    exec_binder: str
    mode: str  # "shrd" | "uniq"
    place: PlaceExpr
    place_key: str
    root: str
    span: Span = NO_SPAN

    def describe(self) -> str:
        how = "writes" if self.mode == "uniq" else "reads"
        return f"`{self.exec_binder}` {how} `{self.place}`"


class AccessEnv:
    """The access mapping environment A of the typing judgement.

    Records are additionally indexed by their root variable: the conflict
    check only ever compares accesses of the same root, and scanning the
    whole record list per access made the check quadratic in function size.
    """

    def __init__(self) -> None:
        self._records: List[AccessRecord] = []
        self._by_root: Dict[str, List[AccessRecord]] = {}

    def record(self, record: AccessRecord) -> AccessRecord:
        self._records.append(record)
        self._by_root.setdefault(record.root, []).append(record)
        return record

    def records(self) -> Tuple[AccessRecord, ...]:
        return tuple(self._records)

    def records_for_root(self, root: str) -> List[AccessRecord]:
        return self._by_root.get(root, [])

    def _reindex(self) -> None:
        self._by_root = {}
        for record in self._records:
            self._by_root.setdefault(record.root, []).append(record)

    def clear_for_sync(self) -> int:
        """Remove accesses made by execution resources inside a block.

        A barrier guarantees that accesses before it cannot conflict with
        accesses after it (Section 3.3): we drop every access performed by an
        execution resource at block granularity or below.
        """
        before = len(self._records)
        self._records = [
            record
            for record in self._records
            if not record.exec_res.blocks_fully_scheduled()
        ]
        self._reindex()
        return before - len(self._records)

    def snapshot(self) -> List[AccessRecord]:
        return list(self._records)

    def restore(self, snapshot: List[AccessRecord]) -> None:
        self._records = list(snapshot)
        self._reindex()

    def __len__(self) -> int:
        return len(self._records)


# ---------------------------------------------------------------------------
# Scheduling frames (for the narrowing check)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchedFrame:
    """One ``sched`` step: the binder it introduced and the sub-resource extents."""

    binder: str
    resource: ExecResource
    extents: Tuple[Nat, ...]
    depth: int

    def is_singleton(self) -> bool:
        """True when there is only one sub-resource (no select required)."""
        return all(nat_equal(extent, NatConst(1)) for extent in self.extents)


# ---------------------------------------------------------------------------
# The bundled typing context
# ---------------------------------------------------------------------------


class TypingContext:
    """Everything the typing rules need, threaded flow-sensitively."""

    def __init__(
        self,
        globals_env: GlobalEnv,
        exec_spec: ExecSpec,
        root_exec: ExecResource,
        source=None,
    ) -> None:
        self.kinds = KindEnv()
        self.globals = globals_env
        self.locals = LocalEnv()
        self.accesses = AccessEnv()
        self.exec_spec = exec_spec
        self.source = source
        #: binder name -> execution resource (the function's exec name plus
        #: every ``sched`` / ``split`` binder currently in scope)
        self.exec_binders: Dict[str, ExecResource] = {exec_spec.name: root_exec}
        #: innermost execution resource ("who executes the current statement")
        self.current_exec: ExecResource = root_exec
        self.current_exec_binder: str = exec_spec.name
        #: stack of sched frames, outermost first
        self.sched_stack: List[SchedFrame] = []
        #: binder -> innermost frame with that binder (O(1) frame lookups for
        #: the select check, instead of scanning the sched stack per place)
        self._frame_index: Dict[str, SchedFrame] = {}
        #: shadowed frames, parallel to ``sched_stack`` (restored on pop)
        self._frame_shadow: List[Optional[SchedFrame]] = []
        #: set when typing the body of a loop a second time (cross-iteration pass)
        self.loop_recheck: bool = False

    # -- depth ---------------------------------------------------------------------
    @property
    def sched_depth(self) -> int:
        return len(self.sched_stack)

    def frames_below(self, depth: int) -> List[SchedFrame]:
        """Sched frames introduced strictly below ``depth`` (deeper than the owner)."""
        return [frame for frame in self.sched_stack if frame.depth > depth]

    # -- exec binders -----------------------------------------------------------------
    def bind_exec(self, name: str, resource: ExecResource) -> Optional[ExecResource]:
        """Bind a binder name (innermost wins); returns the shadowed binding."""
        shadowed = self.exec_binders.get(name)
        self.exec_binders[name] = resource
        return shadowed

    def unbind_exec(self, name: str, shadowed: Optional[ExecResource] = None) -> None:
        """Undo a ``bind_exec``, restoring the binding it shadowed (if any)."""
        if shadowed is None:
            self.exec_binders.pop(name, None)
        else:
            self.exec_binders[name] = shadowed

    def exec_of(self, name: str) -> Optional[ExecResource]:
        return self.exec_binders.get(name)

    # -- sched frames -----------------------------------------------------------------
    def push_sched_frame(self, frame: SchedFrame) -> None:
        self.sched_stack.append(frame)
        self._frame_shadow.append(self._frame_index.get(frame.binder))
        self._frame_index[frame.binder] = frame

    def pop_sched_frame(self) -> SchedFrame:
        frame = self.sched_stack.pop()
        shadowed = self._frame_shadow.pop()
        if shadowed is None:
            self._frame_index.pop(frame.binder, None)
        else:
            self._frame_index[frame.binder] = shadowed
        return frame

    def frame_of_binder(self, binder: str) -> Optional[SchedFrame]:
        # Innermost frame wins for shadowed binder names, consistent with
        # `exec_binders` (bind_exec overwrites) resolving selects innermost.
        return self._frame_index.get(binder)

    # -- errors ----------------------------------------------------------------------
    def error(self, diagnostic: Diagnostic) -> DescendTypeError:
        return DescendTypeError(diagnostic.message, diagnostic)
