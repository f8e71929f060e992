"""Syntactic disjointness of place expressions.

Like Rust (and Oxide), Descend compares place expressions syntactically to
decide whether two accesses may touch overlapping memory.  The analysis here
is deliberately conservative: it only reports ``DISJOINT`` when the two place
expressions *provably* denote non-overlapping memory regions, and reports
``MAY_OVERLAP`` otherwise.

Sources of provable disjointness (Section 3.2):

* different projections out of a tuple (``p.fst`` vs ``p.snd``),
* the two halves of the *same* ``split`` view (``p.split::<k>.fst`` vs
  ``p.split::<k>.snd``),
* indexing with provably distinct static indices (``p[0]`` vs ``p[1]``),
* different root variables (different allocations).

Two *identical* place expressions are not disjoint, but they are also not a
data race when they are accessed by the same (collection of) execution
resources: each instance touches exactly the same element it already owns.
That case is handled by the access-conflict check, not here.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from typing import List

from repro.descend.ast.places import (
    PDeref,
    PIdx,
    PProj,
    PSelect,
    PVar,
    PView,
    PlaceExpr,
)
from repro.descend.nat import Nat, nat_equal, nat_known_distinct


class Overlap(enum.Enum):
    """Result of comparing two place expressions."""

    DISJOINT = "disjoint"
    IDENTICAL = "identical"
    MAY_OVERLAP = "may-overlap"


def _normalized_parts(place: PlaceExpr) -> List[PlaceExpr]:
    """The chain of a place expression with dereferences removed.

    Dereferences do not change *which* memory is denoted (the reference's
    target), so they are transparent for overlap purposes: ``(*arr)[i]`` and
    ``arr[i]`` denote the same element.
    """
    return [part for part in place.parts() if not isinstance(part, PDeref)]


def _same_step(a: PlaceExpr, b: PlaceExpr) -> bool:
    """Whether two chain steps are syntactically the same access step."""
    if isinstance(a, PVar) and isinstance(b, PVar):
        return a.name == b.name
    if isinstance(a, PProj) and isinstance(b, PProj):
        return a.index == b.index
    if isinstance(a, PSelect) and isinstance(b, PSelect):
        return a.exec_var == b.exec_var
    if isinstance(a, PView) and isinstance(b, PView):
        return str(a.ref) == str(b.ref)
    if isinstance(a, PIdx) and isinstance(b, PIdx):
        if isinstance(a.index, Nat) and isinstance(b.index, Nat):
            return nat_equal(a.index, b.index)
        return str(a.index) == str(b.index)
    return False


def _steps_disjoint(a: PlaceExpr, b: PlaceExpr, previous_was_split: bool) -> bool:
    """Whether two *differing* chain steps prove the places disjoint."""
    if isinstance(a, PProj) and isinstance(b, PProj) and a.index != b.index:
        # Tuple fields are separate regions; so are the two halves of a split
        # view (which is the only way a projection follows a view).
        return True
    if isinstance(a, PIdx) and isinstance(b, PIdx):
        if isinstance(a.index, Nat) and isinstance(b.index, Nat):
            return nat_known_distinct(a.index, b.index)
        return False
    return False


def compare_places(a: PlaceExpr, b: PlaceExpr) -> Overlap:
    """Compare two place expressions syntactically.

    The comparison is pure and place expressions are immutable value
    objects, so results are memoized: the access-conflict check compares
    every new access against all recorded ones, which revisits the same
    handful of place pairs throughout a function body.
    """
    try:
        return _compare_places_cached(a, b)
    except TypeError:  # an unhashable index term; compare uncached
        return _compare_places_impl(a, b)


@lru_cache(maxsize=65536)
def _compare_places_cached(a: PlaceExpr, b: PlaceExpr) -> Overlap:
    return _compare_places_impl(a, b)


def clear_overlap_cache() -> None:
    """Drop the memoized place comparisons (cold-cache benchmarking)."""
    _compare_places_cached.cache_clear()


def _compare_places_impl(a: PlaceExpr, b: PlaceExpr) -> Overlap:
    parts_a = _normalized_parts(a)
    parts_b = _normalized_parts(b)

    root_a = parts_a[0]
    root_b = parts_b[0]
    if isinstance(root_a, PVar) and isinstance(root_b, PVar) and root_a.name != root_b.name:
        return Overlap.DISJOINT

    previous_was_split = False
    for step_a, step_b in zip(parts_a, parts_b):
        if _same_step(step_a, step_b):
            previous_was_split = isinstance(step_a, PView) and step_a.ref.name == "split"
            continue
        if _steps_disjoint(step_a, step_b, previous_was_split):
            return Overlap.DISJOINT
        return Overlap.MAY_OVERLAP

    if len(parts_a) == len(parts_b):
        return Overlap.IDENTICAL
    # One place is a prefix of the other: the shorter one covers the longer one.
    return Overlap.MAY_OVERLAP


def places_may_overlap(a: PlaceExpr, b: PlaceExpr) -> bool:
    """True unless the two places are provably disjoint."""
    return compare_places(a, b) is not Overlap.DISJOINT


def place_contains(outer: PlaceExpr, inner: PlaceExpr) -> bool:
    """Whether ``outer`` denotes a region that contains the region of ``inner``.

    Used by borrow checking: a loan of ``x`` blocks accesses to ``x[i]`` and
    vice versa; here we specifically ask whether ``outer`` is a (syntactic)
    prefix of ``inner``.
    """
    parts_outer = _normalized_parts(outer)
    parts_inner = _normalized_parts(inner)
    if len(parts_outer) > len(parts_inner):
        return False
    return all(_same_step(o, i) for o, i in zip(parts_outer, parts_inner))
