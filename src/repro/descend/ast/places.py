"""Place expressions (Figure 3).

A place expression names a region of memory: a variable, a tuple projection,
a dereference, an index into an array, a *select* (``p[[thread]]``, Descend's
safe parallel access), or the application of a view (``p.group::<32>``).

The type checker compares place expressions syntactically (after view
normalisation) to decide whether two accesses may refer to overlapping
memory; the interpreter and the code generator evaluate them into raw
indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Tuple, Union

from repro.descend.nat import Nat, NatLike, as_nat
from repro.descend.ast.views import ViewRef
from repro.descend.source import NO_SPAN, Span


class PlaceExpr:
    """Base class of place expressions."""

    __slots__ = ()

    span: Span = NO_SPAN

    # -- structure -------------------------------------------------------------
    def root(self) -> "PVar":
        """The variable at the bottom of the place expression."""
        raise NotImplementedError

    def parts(self) -> List["PlaceExpr"]:
        """The chain of place expressions from the root to ``self``."""
        raise NotImplementedError

    def select_vars(self) -> Tuple[str, ...]:
        """Names of the execution variables used in selects, outside-in."""
        return tuple(part.exec_var for part in self.parts() if isinstance(part, PSelect))

    def contains_deref(self) -> bool:
        return any(isinstance(part, PDeref) for part in self.parts())

    def key(self) -> str:
        """A canonical string used for syntactic comparison."""
        return str(self)

    # -- convenience constructors (builder style) --------------------------------
    def proj(self, index: int) -> "PProj":
        return PProj(self, index)

    @property
    def fst(self) -> "PProj":
        return PProj(self, 0)

    @property
    def snd(self) -> "PProj":
        return PProj(self, 1)

    def deref(self) -> "PDeref":
        return PDeref(self)

    def idx(self, index: Union[NatLike, Any]) -> "PIdx":
        return PIdx(self, _coerce_index(index))

    def select(self, exec_var: str) -> "PSelect":
        return PSelect(self, exec_var)

    def view(self, name: str, *nat_args: NatLike, view_args: Tuple[ViewRef, ...] = ()) -> "PView":
        return PView(self, ViewRef.of(name, *nat_args, view_args=view_args))

    def apply_view(self, ref: ViewRef) -> "PView":
        return PView(self, ref)

    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


def _coerce_index(index: Union[NatLike, Any]):
    """Indices are nats when possible (constants, loop variables), terms otherwise."""
    if isinstance(index, (int, str)) or isinstance(index, Nat):
        return as_nat(index)
    return index


@dataclass(frozen=True)
class PVar(PlaceExpr):
    """A variable naming a region of memory."""

    name: str
    span: Span = NO_SPAN

    def root(self) -> "PVar":
        return self

    def parts(self) -> List[PlaceExpr]:
        return [self]

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class PProj(PlaceExpr):
    """``p.fst`` / ``p.snd`` — projection out of a pair."""

    base: PlaceExpr
    index: int
    span: Span = NO_SPAN

    def root(self) -> PVar:
        return self.base.root()

    def parts(self) -> List[PlaceExpr]:
        return self.base.parts() + [self]

    def __str__(self) -> str:
        return f"{self.base}.{'fst' if self.index == 0 else 'snd'}"


@dataclass(frozen=True)
class PDeref(PlaceExpr):
    """``*p`` — the memory a reference points to."""

    base: PlaceExpr
    span: Span = NO_SPAN

    def root(self) -> PVar:
        return self.base.root()

    def parts(self) -> List[PlaceExpr]:
        return self.base.parts() + [self]

    def __str__(self) -> str:
        return f"(*{self.base})"


@dataclass(frozen=True)
class PIdx(PlaceExpr):
    """``p[i]`` — a single element of an array.

    The index is a :class:`Nat` whenever it is statically known (a constant or
    a ``for``-nat loop variable); otherwise it is an arbitrary term.
    """

    base: PlaceExpr
    index: Any
    span: Span = NO_SPAN

    def root(self) -> PVar:
        return self.base.root()

    def parts(self) -> List[PlaceExpr]:
        return self.base.parts() + [self]

    def __str__(self) -> str:
        return f"{self.base}[{self.index}]"


@dataclass(frozen=True)
class PSelect(PlaceExpr):
    """``p[[e]]`` — each sub-execution-resource of ``e`` selects its own element."""

    base: PlaceExpr
    exec_var: str
    span: Span = NO_SPAN

    def root(self) -> PVar:
        return self.base.root()

    def parts(self) -> List[PlaceExpr]:
        return self.base.parts() + [self]

    def __str__(self) -> str:
        return f"{self.base}[[{self.exec_var}]]"


@dataclass(frozen=True)
class PView(PlaceExpr):
    """``p.view::<...>`` — reinterpret the array through a view."""

    base: PlaceExpr
    ref: ViewRef
    span: Span = NO_SPAN

    def root(self) -> PVar:
        return self.base.root()

    def parts(self) -> List[PlaceExpr]:
        return self.base.parts() + [self]

    def __str__(self) -> str:
        return f"{self.base}.{self.ref}"


def place_root_name(place: PlaceExpr) -> str:
    return place.root().name


def strip_derefs(place: PlaceExpr) -> PlaceExpr:
    """Remove dereferences (used when resolving a place to its backing buffer)."""
    if isinstance(place, PVar):
        return place
    if isinstance(place, PDeref):
        return strip_derefs(place.base)
    if isinstance(place, PProj):
        return PProj(strip_derefs(place.base), place.index, place.span)
    if isinstance(place, PIdx):
        return PIdx(strip_derefs(place.base), place.index, place.span)
    if isinstance(place, PSelect):
        return PSelect(strip_derefs(place.base), place.exec_var, place.span)
    if isinstance(place, PView):
        return PView(strip_derefs(place.base), place.ref, place.span)
    raise TypeError(f"unknown place expression {place!r}")
