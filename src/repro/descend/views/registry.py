"""The registry of built-in views and their semantics.

Every view is described by a :class:`ViewImpl` providing two operations that
work uniformly over any value domain that supports ``+``, ``-``, ``*`` and
``//`` (Python ints for the interpreter, symbolic index expressions for the
code generator, :class:`~repro.descend.nat.Nat` for the type checker):

``out_shape(args, in_shape)``
    the shape of the array seen through the view,

``to_source(args, view_args, in_shape, coords)``
    map coordinates in the viewed array back to coordinates in the source
    array (views never move data, they only remap accesses).

The ``split`` view is special: it produces a *pair* of arrays, so its
``out_shape`` returns two shapes and ``to_source`` additionally takes the
projected half.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.descend.ast.views import ViewRef
from repro.descend.nat import Nat, nat_divisible, nat_le
from repro.errors import DescendError


class ViewError(DescendError):
    """Raised when a view is applied to an array of the wrong shape."""


Shape = Tuple[object, ...]
Coords = Tuple[object, ...]


@dataclass
class ResolvedView:
    """A view reference resolved against the registry with its argument views."""

    impl: "ViewImpl"
    nat_args: Tuple[Nat, ...]
    view_args: Tuple["ResolvedView", ...]

    @property
    def name(self) -> str:
        return self.impl.name

    def describe(self) -> str:
        text = self.impl.name
        if self.nat_args:
            text += "::<" + ", ".join(str(a) for a in self.nat_args) + ">"
        if self.view_args:
            text += "(" + ", ".join(v.describe() for v in self.view_args) + ")"
        return text


class ViewImpl:
    """Base class for view implementations."""

    name: str = "<view>"
    num_nat_args: int = 0
    num_view_args: int = 0
    is_split: bool = False

    # -- shape -------------------------------------------------------------------
    def min_rank(self) -> int:
        """Minimum number of array dimensions the view needs."""
        return 1

    def out_shape(self, args: Sequence[object], view_args: Sequence[ResolvedView], in_shape: Shape) -> Shape:
        raise NotImplementedError

    def to_source(
        self,
        args: Sequence[object],
        view_args: Sequence[ResolvedView],
        in_shape: Shape,
        coords: Coords,
    ) -> Coords:
        raise NotImplementedError

    # -- static checking ------------------------------------------------------------
    def static_constraints(self, args: Sequence[Nat], in_shape: Tuple[Nat, ...]) -> List[str]:
        """Human-readable descriptions of violated static constraints (empty = ok)."""
        return []

    def check_arity(self, ref: ViewRef) -> None:
        if len(ref.nat_args) != self.num_nat_args:
            raise ViewError(
                f"view `{self.name}` expects {self.num_nat_args} nat argument(s), "
                f"got {len(ref.nat_args)}"
            )
        if len(ref.view_args) != self.num_view_args:
            raise ViewError(
                f"view `{self.name}` expects {self.num_view_args} view argument(s), "
                f"got {len(ref.view_args)}"
            )


def _require_rank(view: ViewImpl, in_shape: Shape) -> None:
    if len(in_shape) < view.min_rank():
        raise ViewError(
            f"view `{view.name}` needs an array of rank >= {view.min_rank()}, "
            f"got shape of rank {len(in_shape)}"
        )


class IdentityView(ViewImpl):
    """``to_view`` — the identity view (turns ``[T; n]`` into ``[[T; n]]``)."""

    name = "to_view"

    def out_shape(self, args, view_args, in_shape):
        return tuple(in_shape)

    def to_source(self, args, view_args, in_shape, coords):
        return tuple(coords)


class GroupView(ViewImpl):
    """``group::<k>`` — combine consecutive elements into groups of ``k``."""

    name = "group"
    num_nat_args = 1

    def out_shape(self, args, view_args, in_shape):
        _require_rank(self, in_shape)
        k = args[0]
        n = in_shape[0]
        return (n // k, k) + tuple(in_shape[1:])

    def to_source(self, args, view_args, in_shape, coords):
        k = args[0]
        group_index, within = coords[0], coords[1]
        return (group_index * k + within,) + tuple(coords[2:])

    def static_constraints(self, args, in_shape):
        problems = []
        if nat_divisible(in_shape[0], args[0]) is False:
            problems.append(f"group::<{args[0]}> requires {in_shape[0]} % {args[0]} == 0")
        return problems


class TransposeView(ViewImpl):
    """``transpose`` — swap the two outermost dimensions."""

    name = "transpose"

    def min_rank(self) -> int:
        return 2

    def out_shape(self, args, view_args, in_shape):
        _require_rank(self, in_shape)
        return (in_shape[1], in_shape[0]) + tuple(in_shape[2:])

    def to_source(self, args, view_args, in_shape, coords):
        return (coords[1], coords[0]) + tuple(coords[2:])


class ReverseView(ViewImpl):
    """``rev`` — reverse the order of elements of the outermost dimension."""

    name = "rev"

    def out_shape(self, args, view_args, in_shape):
        _require_rank(self, in_shape)
        return tuple(in_shape)

    def to_source(self, args, view_args, in_shape, coords):
        n = in_shape[0]
        return (n - 1 - coords[0],) + tuple(coords[1:])


class SplitView(ViewImpl):
    """``split::<k>`` — split the outermost dimension into two parts at ``k``."""

    name = "split"
    num_nat_args = 1
    is_split = True

    def out_shape(self, args, view_args, in_shape):
        _require_rank(self, in_shape)
        k = args[0]
        n = in_shape[0]
        first = (k,) + tuple(in_shape[1:])
        second = (n - k,) + tuple(in_shape[1:])
        return (first, second)

    def to_source_half(self, half: int, args, view_args, in_shape, coords):
        k = args[0]
        if half == 0:
            return tuple(coords)
        return (coords[0] + k,) + tuple(coords[1:])

    def to_source(self, args, view_args, in_shape, coords):  # pragma: no cover - defensive
        raise ViewError("`split` must be followed by `.fst` or `.snd`")

    def static_constraints(self, args, in_shape):
        problems = []
        if nat_le(args[0], in_shape[0]) is False:
            problems.append(f"split::<{args[0]}> requires {args[0]} <= {in_shape[0]}")
        return problems


class MapView(ViewImpl):
    """``map(v)`` — apply a view to every element of the outer array.

    The view argument is supplied as a *bound view*: an object exposing
    ``out_shape(in_shape)`` and ``to_source(in_shape, coords)`` with its nat
    arguments already resolved into the caller's value domain (see
    :class:`repro.descend.views.indexing.BoundView`).
    """

    name = "map"
    num_view_args = 1

    def min_rank(self) -> int:
        return 2

    def out_shape(self, args, view_args, in_shape):
        _require_rank(self, in_shape)
        inner = view_args[0]
        inner_shape = inner.out_shape(tuple(in_shape[1:]))
        if isinstance(inner_shape, tuple) and inner_shape and isinstance(inner_shape[0], tuple):
            raise ViewError("`map(split)` is not supported; split must be outermost")
        return (in_shape[0],) + tuple(inner_shape)

    def to_source(self, args, view_args, in_shape, coords):
        inner = view_args[0]
        inner_coords = inner.to_source(tuple(in_shape[1:]), tuple(coords[1:]))
        return (coords[0],) + tuple(inner_coords)


class JoinView(ViewImpl):
    """``join`` — flatten the two outermost dimensions (inverse of ``group``)."""

    name = "join"

    def min_rank(self) -> int:
        return 2

    def out_shape(self, args, view_args, in_shape):
        _require_rank(self, in_shape)
        return (in_shape[0] * in_shape[1],) + tuple(in_shape[2:])

    def to_source(self, args, view_args, in_shape, coords):
        inner_size = in_shape[1]
        flat = coords[0]
        return (flat // inner_size, flat % inner_size) + tuple(coords[1:])


class GroupByTileView(ViewImpl):
    """``group_by_tile::<th, tw>`` — partition a matrix into ``th``×``tw`` tiles.

    ``[[d; W]; H]`` (H rows of W elements) becomes a ``H/th`` × ``W/tw`` array
    of tiles, each tile being ``[[d; tw]; th]``.
    """

    name = "group_by_tile"
    num_nat_args = 2

    def min_rank(self) -> int:
        return 2

    def out_shape(self, args, view_args, in_shape):
        _require_rank(self, in_shape)
        th, tw = args[0], args[1]
        height, width = in_shape[0], in_shape[1]
        return (height // th, width // tw, th, tw) + tuple(in_shape[2:])

    def to_source(self, args, view_args, in_shape, coords):
        th, tw = args[0], args[1]
        tile_row, tile_col, row, col = coords[0], coords[1], coords[2], coords[3]
        return (tile_row * th + row, tile_col * tw + col) + tuple(coords[4:])

    def static_constraints(self, args, in_shape):
        problems = []
        if nat_divisible(in_shape[0], args[0]) is False:
            problems.append(f"group_by_tile rows: {in_shape[0]} % {args[0]} != 0")
        if nat_divisible(in_shape[1], args[1]) is False:
            problems.append(f"group_by_tile cols: {in_shape[1]} % {args[1]} != 0")
        return problems


class GroupByRowView(ViewImpl):
    """``group_by_row::<row_size, per_thread>`` — distribute matrix rows round-robin.

    ``[[d; C]; R]`` becomes ``[[[d; per_thread]; C]; R/per_thread]``: coordinate
    ``(y, x, i)`` maps to element ``(y + (R/per_thread) * i, x)`` of the source.
    This reproduces the access pattern of Listing 1/2 of the paper, where a
    32×8 thread block copies a 32×32 tile with each thread handling 4 rows
    strided by 8.
    """

    name = "group_by_row"
    num_nat_args = 2

    def min_rank(self) -> int:
        return 2

    def out_shape(self, args, view_args, in_shape):
        _require_rank(self, in_shape)
        per_thread = args[1]
        rows, cols = in_shape[0], in_shape[1]
        return (rows // per_thread, cols, per_thread) + tuple(in_shape[2:])

    def to_source(self, args, view_args, in_shape, coords):
        per_thread = args[1]
        rows = in_shape[0]
        stride = rows // per_thread
        y, x, i = coords[0], coords[1], coords[2]
        return (y + stride * i, x) + tuple(coords[3:])

    def static_constraints(self, args, in_shape):
        problems = []
        if nat_divisible(in_shape[0], args[1]) is False:
            problems.append(f"group_by_row: {in_shape[0]} % {args[1]} != 0")
        return problems


class ViewRegistry:
    """Maps view names to their implementations."""

    def __init__(self) -> None:
        self._views: Dict[str, ViewImpl] = {}

    def register(self, impl: ViewImpl) -> ViewImpl:
        if impl.name in self._views:
            raise ViewError(f"view `{impl.name}` registered twice")
        self._views[impl.name] = impl
        return impl

    def lookup(self, name: str) -> ViewImpl:
        if name not in self._views:
            raise ViewError(f"unknown view `{name}`")
        return self._views[name]

    def known(self, name: str) -> bool:
        return name in self._views

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._views))


_DEFAULT = ViewRegistry()
for _impl in (
    IdentityView(),
    GroupView(),
    TransposeView(),
    ReverseView(),
    SplitView(),
    MapView(),
    JoinView(),
    GroupByTileView(),
    GroupByRowView(),
):
    _DEFAULT.register(_impl)


def default_registry() -> ViewRegistry:
    """The registry containing all built-in views."""
    return _DEFAULT


def resolve_view(ref: ViewRef, registry: Optional[ViewRegistry] = None) -> ResolvedView:
    """Resolve a syntactic view reference against a registry (recursively)."""
    registry = registry or _DEFAULT
    impl = registry.lookup(ref.name)
    impl.check_arity(ref)
    view_args = tuple(resolve_view(arg, registry) for arg in ref.view_args)
    return ResolvedView(impl=impl, nat_args=ref.nat_args, view_args=view_args)
