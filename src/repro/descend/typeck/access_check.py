"""``access_safety_check`` — the GPU-specific safety checks of Descend.

Following the T-Read-By-Copy and T-Write rules of the paper (Figure 7), every
memory access (read, write, or borrow) of a place expression ``p`` in mode
``shrd`` or ``uniq`` goes through three logical steps:

1. **Narrowing check** — a unique access must have been narrowed down the
   execution hierarchy: for every ``sched`` step between the owner of the
   underlying memory and the execution resource performing the access, the
   place must select (``[[e]]``) a distinct part per sub-resource (unless
   that step has only a single sub-resource).

2. **Access-conflict check** — the access must not conflict with a previous
   access recorded in the access environment A: two accesses to possibly
   overlapping memory conflict when at least one of them is unique, unless
   they are the *same* place accessed by the *same* execution resource (each
   instance only touches the element it already owns).

3. **Borrow checking** — classic Rust/Oxide borrow checking against the
   active loans: a unique loan blocks all other accesses to overlapping
   places, a shared loan blocks unique accesses.

On success the access is recorded in A (producing the A′ of the judgement).
"""

from __future__ import annotations

from typing import Optional

from repro.descend.ast.exec_resources import ExecResource
from repro.descend.diagnostics import Diagnostic
from repro.descend.source import Span
from repro.descend.typeck.context import AccessRecord, Loan, TypingContext
from repro.descend.typeck.overlap import Overlap, compare_places, places_may_overlap
from repro.descend.typeck.place_typing import PlaceInfo

SHRD = "shrd"
UNIQ = "uniq"


def access_safety_check(
    ctx: TypingContext,
    info: PlaceInfo,
    mode: str,
    span: Optional[Span] = None,
) -> AccessRecord:
    """Run the three safety checks for one access and record it in A."""
    span = span or info.span
    if mode not in (SHRD, UNIQ):
        raise ValueError(f"invalid access mode {mode!r}")

    if mode == UNIQ:
        _narrowing_check(ctx, info, span)
    _conflict_check(ctx, info, mode, span)
    _borrow_check(ctx, info, mode, span)

    record = AccessRecord(
        exec_res=ctx.current_exec,
        exec_binder=ctx.current_exec_binder,
        mode=mode,
        place=info.place,
        place_key=info.place.key(),
        root=info.root_name,
        span=span,
    )
    ctx.accesses.record(record)
    return record


# ---------------------------------------------------------------------------
# 1. Narrowing
# ---------------------------------------------------------------------------


def _narrowing_check(ctx: TypingContext, info: PlaceInfo, span: Span) -> None:
    """A unique access must select a distinct part per sub-execution-resource."""
    required_frames = [
        frame
        for frame in ctx.frames_below(info.root.owner_depth)
        if not frame.is_singleton()
    ]
    provided = set(info.select_vars)
    missing = [frame for frame in required_frames if frame.binder not in provided]
    if not missing:
        return

    frame = missing[0]
    diagnostic = Diagnostic.error(
        "E0006",
        "narrowing violated: unique access is not narrowed to the executing resource",
        span,
        label=(
            f"`{info.place}` is owned at the level of `{_owner_description(ctx, info)}` "
            f"but accessed uniquely by every `{frame.binder}`"
        ),
        notes=[
            f"each `{frame.binder}` would get unique access to the same memory; "
            f"select a distinct part with `[[{frame.binder}]]` or a view",
        ],
    )
    raise ctx.error(diagnostic)


def _owner_description(ctx: TypingContext, info: PlaceInfo) -> str:
    depth = info.root.owner_depth
    if depth == 0:
        return ctx.exec_spec.name
    for frame in ctx.sched_stack:
        if frame.depth == depth:
            return frame.binder
    return f"depth {depth}"


# ---------------------------------------------------------------------------
# 2. Access conflicts
# ---------------------------------------------------------------------------


def _accesses_conflict(
    previous: AccessRecord,
    current_exec: ExecResource,
    current_binder: str,
    place_info: PlaceInfo,
    mode: str,
) -> bool:
    """Whether a previously recorded access conflicts with the new one."""
    if previous.mode == SHRD and mode == SHRD:
        return False
    if previous.root != place_info.root_name:
        return False

    overlap = compare_places(previous.place, place_info.place)
    if overlap is Overlap.DISJOINT:
        return False
    if overlap is Overlap.IDENTICAL:
        # The same place accessed by the same execution resource: every
        # instance touches only its own element(s), no cross-instance race.
        if previous.exec_res == current_exec:
            return False
        # Disjoint thread sets accessing the identical memory region conflict
        # as soon as one of them writes.
        return True
    return True


def _conflict_check(ctx: TypingContext, info: PlaceInfo, mode: str, span: Span) -> None:
    for previous in ctx.accesses.records_for_root(info.root_name):
        if _accesses_conflict(previous, ctx.current_exec, ctx.current_exec_binder, info, mode):
            message = "conflicting memory access"
            if ctx.loop_recheck:
                message += " across loop iterations"
            diagnostic = Diagnostic.error(
                "E0001",
                message,
                span,
                label=f"cannot select memory `{info.place}` for a {_mode_word(mode)} access",
            )
            diagnostic.with_label(
                previous.span,
                f"because of a conflicting prior selection here: {previous.describe()}",
                primary=False,
            )
            if ctx.loop_recheck:
                diagnostic.with_note(
                    "the conflicting accesses happen in different iterations of the "
                    "enclosing loop; a `sync` between them would make this safe"
                )
            raise ctx.error(diagnostic)


def _mode_word(mode: str) -> str:
    return "unique (write)" if mode == UNIQ else "shared (read)"


# ---------------------------------------------------------------------------
# 3. Borrow checking
# ---------------------------------------------------------------------------


def _loan_conflicts(loan: Loan, info: PlaceInfo, mode: str) -> bool:
    if loan.root != info.root_name:
        return False
    if not places_may_overlap(loan.place, info.place):
        return False
    if loan.uniq:
        # A unique loan excludes every other access to overlapping memory that
        # does not go through the borrow itself (such accesses have the
        # borrow's variable as their root and are filtered out above).
        return True
    return mode == UNIQ


def _borrow_check(ctx: TypingContext, info: PlaceInfo, mode: str, span: Span) -> None:
    for loan in ctx.locals.active_loans():
        if loan.span == span and str(loan.place) == str(info.place):
            # The access that creates a borrow is checked before the loan is
            # registered; skip self-conflicts defensively.
            continue
        if _loan_conflicts(loan, info, mode):
            diagnostic = Diagnostic.error(
                "E0008",
                f"cannot access `{info.place}` because it is borrowed",
                span,
                label=f"{_mode_word(mode)} access conflicts with an active borrow",
            )
            diagnostic.with_label(loan.span, f"{loan.describe()} occurs here", primary=False)
            raise ctx.error(diagnostic)
