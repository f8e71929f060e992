"""Applying chains of views, indices, and selects to compute element locations.

The same engine serves three clients:

* the **interpreter** instantiates it with Python ints and gets raw offsets
  into simulator buffers,
* the **code generator** instantiates it with symbolic CUDA index expressions
  (objects overloading ``+``, ``*``, ``//``, ...) and gets the raw index
  arithmetic that is emitted into the generated CUDA C++,
* the **type checker** instantiates it with :class:`~repro.descend.nat.Nat`
  values to compute the shape of a viewed array.

This mirrors the paper's code-generation strategy (Section 5): views are
compiled into raw indices by processing the applied views in reverse order,
each view transforming the index produced so far.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

from repro.descend.ast.views import ViewRef
from repro.descend.nat import Nat
from repro.descend.views.registry import ResolvedView, ViewRegistry, default_registry, resolve_view
from repro.errors import DescendError


class IndexingError(DescendError):
    """Raised when a place expression cannot be lowered to an element location."""


#: Resolves a Nat into the client's value domain (int, symbolic expression, Nat).
NatResolver = Callable[[Nat], object]


def identity_resolver(nat: Nat) -> object:
    """Resolver used by the type checker: keep nats symbolic."""
    return nat


@dataclass(frozen=True)
class BoundView:
    """A resolved view whose nat arguments have been mapped into a value domain."""

    view: ResolvedView
    resolver: NatResolver

    def _args(self) -> Tuple[object, ...]:
        return tuple(self.resolver(arg) for arg in self.view.nat_args)

    def _bound_view_args(self) -> Tuple["BoundView", ...]:
        return tuple(BoundView(arg, self.resolver) for arg in self.view.view_args)

    @property
    def is_split(self) -> bool:
        return self.view.impl.is_split

    def out_shape(self, in_shape: Tuple[object, ...]):
        return self.view.impl.out_shape(self._args(), self._bound_view_args(), in_shape)

    def to_source(self, in_shape: Tuple[object, ...], coords: Tuple[object, ...]) -> Tuple[object, ...]:
        return self.view.impl.to_source(self._args(), self._bound_view_args(), in_shape, coords)

    def to_source_half(
        self, half: int, in_shape: Tuple[object, ...], coords: Tuple[object, ...]
    ) -> Tuple[object, ...]:
        impl = self.view.impl
        return impl.to_source_half(half, self._args(), self._bound_view_args(), in_shape, coords)

    def describe(self) -> str:
        return self.view.describe()


CoordsToBase = Callable[[Tuple[object, ...]], Tuple[object, ...]]


@dataclass
class LogicalArray:
    """An array seen through a chain of views and partial indexing.

    ``shape`` is the shape of the *viewed* array that remains to be indexed;
    ``to_base`` maps remaining coordinates to coordinates in the *base* array
    (the physical allocation).
    """

    shape: Tuple[object, ...]
    to_base: CoordsToBase
    base_shape: Tuple[object, ...]

    # -- construction -------------------------------------------------------------
    @staticmethod
    def root(shape: Sequence[object]) -> "LogicalArray":
        shape = tuple(shape)
        return LogicalArray(shape=shape, to_base=lambda coords: tuple(coords), base_shape=shape)

    # -- operations ----------------------------------------------------------------
    def apply_view(self, bound: BoundView) -> Union["LogicalArray", "LogicalPair"]:
        """Apply a view; ``split`` produces a :class:`LogicalPair`."""
        if bound.is_split:
            first_shape, second_shape = bound.out_shape(self.shape)
            return LogicalPair(
                first=self._derived(tuple(first_shape), bound, half=0),
                second=self._derived(tuple(second_shape), bound, half=1),
            )
        new_shape = tuple(bound.out_shape(self.shape))
        return self._derived(new_shape, bound, half=None)

    def _derived(self, new_shape: Tuple[object, ...], bound: BoundView, half: Optional[int]) -> "LogicalArray":
        old_shape = self.shape
        old_to_base = self.to_base

        def to_base(coords: Tuple[object, ...]) -> Tuple[object, ...]:
            if half is None:
                source = bound.to_source(old_shape, coords)
            else:
                source = bound.to_source_half(half, old_shape, coords)
            return old_to_base(tuple(source))

        return LogicalArray(shape=new_shape, to_base=to_base, base_shape=self.base_shape)

    def index(self, value: object) -> "LogicalArray":
        """Consume the outermost dimension with a single index."""
        if not self.shape:
            raise IndexingError("cannot index a scalar")
        rest = self.shape[1:]
        old_to_base = self.to_base

        def to_base(coords: Tuple[object, ...]) -> Tuple[object, ...]:
            return old_to_base((value,) + tuple(coords))

        return LogicalArray(shape=rest, to_base=to_base, base_shape=self.base_shape)

    def select(self, values: Sequence[object]) -> "LogicalArray":
        """Consume one dimension per coordinate of the selecting execution resource."""
        result: LogicalArray = self
        for value in values:
            result = result.index(value)
        return result

    # -- results -------------------------------------------------------------------
    def base_coords(self, coords: Sequence[object] = ()) -> Tuple[object, ...]:
        coords = tuple(coords)
        if len(coords) != len(self.shape):
            raise IndexingError(
                f"expected {len(self.shape)} coordinates, got {len(coords)}"
            )
        return self.to_base(coords)

    def flat_offset(self, coords: Sequence[object] = ()) -> object:
        """Row-major offset of an element in the base allocation."""
        base = self.base_coords(coords)
        if len(base) != len(self.base_shape):
            raise IndexingError(
                "internal error: base coordinates do not match the base shape"
            )
        offset: object = 0
        for value, extent in zip(base, self.base_shape):
            offset = offset * extent + value
        return offset

    def is_scalar(self) -> bool:
        return not self.shape

    def rank(self) -> int:
        return len(self.shape)


@dataclass
class LogicalPair:
    """The result of applying ``split``: a pair of logical arrays."""

    first: LogicalArray
    second: LogicalArray

    def project(self, index: int) -> LogicalArray:
        if index == 0:
            return self.first
        if index == 1:
            return self.second
        raise IndexingError(f"pair projection index must be 0 or 1, got {index}")


def bind_view(
    ref: ViewRef,
    resolver: NatResolver = identity_resolver,
    registry: Optional[ViewRegistry] = None,
) -> BoundView:
    """Resolve a syntactic view reference and bind it to a value domain."""
    return BoundView(resolve_view(ref, registry or default_registry()), resolver)
