"""Tests for the view registry: shape transformation and index remapping."""

import numpy as np
import pytest

from repro.descend.ast.views import ViewRef
from repro.descend.nat import NatConst
from repro.descend.views.indexing import LogicalArray, LogicalPair, bind_view
from repro.descend.views.registry import ViewError, default_registry, resolve_view


def concrete(ref: ViewRef):
    return bind_view(ref, resolver=lambda nat: nat.evaluate({}))


def offsets_of(shape, *view_refs):
    """All flat offsets of the fully-indexed viewed array, in row-major order."""
    logical = LogicalArray.root(shape)
    for ref in view_refs:
        logical = logical.apply_view(concrete(ref))
    out = []

    def walk(current, coords):
        if len(coords) == len(current.shape):
            out.append(current.flat_offset(coords))
            return
        for index in range(current.shape[len(coords)]):
            walk(current, coords + (index,))

    walk(logical, ())
    return out


class TestRegistry:
    def test_known_names(self):
        names = default_registry().names()
        for expected in ("group", "transpose", "rev", "split", "map", "join", "group_by_tile", "group_by_row"):
            assert expected in names

    def test_unknown_view(self):
        with pytest.raises(ViewError):
            default_registry().lookup("zip")

    def test_arity_checking(self):
        with pytest.raises(ViewError):
            resolve_view(ViewRef.of("group"))
        with pytest.raises(ViewError):
            resolve_view(ViewRef.of("map"))

    def test_static_constraints_report_divisibility(self):
        impl = default_registry().lookup("group")
        problems = impl.static_constraints([NatConst(3)], (NatConst(8),))
        assert problems


class TestShapes:
    def test_group_shape(self):
        logical = LogicalArray.root((32,)).apply_view(concrete(ViewRef.of("group", 8)))
        assert logical.shape == (4, 8)

    def test_transpose_shape(self):
        logical = LogicalArray.root((4, 8)).apply_view(concrete(ViewRef.of("transpose")))
        assert logical.shape == (8, 4)

    def test_group_by_tile_shape(self):
        logical = LogicalArray.root((8, 8)).apply_view(concrete(ViewRef.of("group_by_tile", 4, 2)))
        assert logical.shape == (2, 4, 4, 2)

    def test_split_produces_pair(self):
        pair = LogicalArray.root((10,)).apply_view(concrete(ViewRef.of("split", 4)))
        assert isinstance(pair, LogicalPair)
        assert pair.first.shape == (4,)
        assert pair.second.shape == (6,)

    def test_rank_too_small(self):
        with pytest.raises(ViewError):
            LogicalArray.root((8,)).apply_view(concrete(ViewRef.of("transpose")))


class TestIndexing:
    def test_group_covers_all_offsets_in_order(self):
        assert offsets_of((12,), ViewRef.of("group", 4)) == list(range(12))

    def test_reverse_offsets(self):
        assert offsets_of((5,), ViewRef.of("rev")) == [4, 3, 2, 1, 0]

    def test_transpose_matches_numpy(self):
        base = np.arange(24).reshape(4, 6)
        got = np.array(offsets_of((4, 6), ViewRef.of("transpose"))).reshape(6, 4)
        assert np.array_equal(base.T, base.reshape(-1)[got])

    def test_join_flattens(self):
        assert offsets_of((3, 4), ViewRef.of("join")) == list(range(12))

    def test_group_then_transpose(self):
        # group 8 elements into 4 groups of 2 and transpose: column-major traversal
        assert offsets_of((8,), ViewRef.of("group", 2), ViewRef.of("transpose")) == [0, 2, 4, 6, 1, 3, 5, 7]

    def test_map_reverse(self):
        ref = ViewRef.of("map", view_args=(ViewRef.of("rev"),))
        assert offsets_of((2, 3), ref) == [2, 1, 0, 5, 4, 3]

    def test_split_halves(self):
        logical = LogicalArray.root((10,))
        pair = logical.apply_view(concrete(ViewRef.of("split", 4)))
        assert [pair.first.flat_offset((i,)) for i in range(4)] == [0, 1, 2, 3]
        assert [pair.second.flat_offset((i,)) for i in range(6)] == [4, 5, 6, 7, 8, 9]

    def test_group_by_tile_offsets(self):
        base = np.arange(16).reshape(4, 4)
        logical = LogicalArray.root((4, 4)).apply_view(concrete(ViewRef.of("group_by_tile", 2, 2)))
        tile = [[logical.flat_offset((1, 0, r, c)) for c in range(2)] for r in range(2)]
        assert np.array_equal(base.reshape(-1)[np.array(tile)], base[2:4, 0:2])

    def test_group_by_row_stride(self):
        logical = LogicalArray.root((8, 4)).apply_view(concrete(ViewRef.of("group_by_row", 8, 2)))
        assert logical.shape == (4, 4, 2)
        # (y, x, i) -> row y + 4*i, column x
        assert logical.flat_offset((1, 3, 1)) == (1 + 4 * 1) * 4 + 3

    def test_select_consumes_dims(self):
        logical = LogicalArray.root((4, 8)).select((2,))
        assert logical.shape == (8,)
        assert logical.flat_offset((3,)) == 2 * 8 + 3

    def test_scalar_offset_requires_full_coords(self):
        logical = LogicalArray.root((4, 4))
        with pytest.raises(Exception):
            logical.flat_offset((1,))

    def test_split_must_be_projected(self):
        pair = LogicalArray.root((8,)).apply_view(concrete(ViewRef.of("split", 2)))
        with pytest.raises(Exception):
            pair.project(2)
