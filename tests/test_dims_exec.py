"""Tests for dimensions and execution resources."""

import pytest

from repro.descend.ast.dims import Dim, DimName, dim_from_spec, dim_x, dim_xy
from repro.descend.ast.exec_resources import (
    CpuThreadRes,
    ForallRes,
    GpuGridRes,
    SplitRes,
    exec_disjoint,
    make_split,
)
from repro.descend.nat import NatConst, as_nat, nat_equal
from repro.errors import DescendError


class TestDim:
    def test_of_constructor(self):
        dim = Dim.of(x=32, y=8)
        assert dim.size(DimName.X) == NatConst(32)
        assert dim.size(DimName.Y) == NatConst(8)

    def test_spec_name(self):
        assert dim_xy(32, 8).spec_name() == "XY<32, 8>"

    def test_from_spec(self):
        dim = dim_from_spec("XYZ", [2, 2, 1])
        assert dim.rank() == 3
        assert dim.spec_name() == "XYZ<2, 2, 1>"

    def test_from_spec_wrong_arity(self):
        with pytest.raises(DescendError):
            dim_from_spec("XY", [2])

    def test_duplicate_dimension_rejected(self):
        with pytest.raises(DescendError):
            Dim(((DimName.X, as_nat(1)), (DimName.X, as_nat(2))))

    def test_total(self):
        assert nat_equal(dim_xy(4, 8).total(), as_nat(32))

    def test_missing_dimension_lookup(self):
        with pytest.raises(DescendError):
            dim_x(4).size(DimName.Y)

    def test_has(self):
        assert dim_x(4).has(DimName.X)
        assert not dim_x(4).has(DimName.Z)

    def test_concrete_sizes(self):
        dim = Dim.of(x="n")
        assert dim.concrete_sizes({"n": 7}) == {DimName.X: 7}

    def test_equals_modulo_order(self):
        a = Dim.from_pairs([(DimName.X, 4), (DimName.Y, 8)])
        b = Dim.from_pairs([(DimName.Y, 8), (DimName.X, 4)])
        assert a.equals(b)

    def test_equals_different_sizes(self):
        assert not dim_x(4).equals(dim_x(8))


class TestExecResources:
    def _grid(self):
        return GpuGridRes(dim_xy(4, 4), dim_xy(32, 8))

    def test_cpu_thread_is_not_gpu(self):
        cpu = CpuThreadRes()
        assert not cpu.is_gpu()
        assert cpu.is_single_thread()

    def test_grid_has_pending_dims(self):
        grid = self._grid()
        assert set(grid.pending_block_dims()) == {DimName.X, DimName.Y}
        assert not grid.blocks_fully_scheduled()

    def test_forall_over_blocks(self):
        grid = self._grid()
        blocks = ForallRes(grid, (DimName.Y, DimName.X))
        assert blocks.blocks_fully_scheduled()
        assert blocks.is_block_level()
        assert not blocks.is_single_thread()

    def test_forall_over_threads_reaches_single_thread(self):
        grid = self._grid()
        blocks = ForallRes(grid, (DimName.Y, DimName.X))
        threads = ForallRes(blocks, (DimName.Y, DimName.X))
        assert threads.is_single_thread()
        assert threads.sched_depth() == 2

    def test_forall_extents(self):
        grid = self._grid()
        extents = grid.forall_extents((DimName.Y, DimName.X))
        assert [e.evaluate({}) for e in extents] == [4, 4]
        blocks = ForallRes(grid, (DimName.Y, DimName.X))
        thread_extents = blocks.forall_extents((DimName.X,))
        assert thread_extents[0].evaluate({}) == 32

    def test_forall_over_missing_dim_rejected(self):
        grid = GpuGridRes(dim_x(4), dim_x(32))
        with pytest.raises(DescendError):
            grid.forall_extents((DimName.Y,))

    def test_split_reduces_extent(self):
        grid = GpuGridRes(dim_x(4), dim_x(32))
        blocks = ForallRes(grid, (DimName.X,))
        first, second = make_split(blocks, DimName.X, 8)
        assert first.forall_extents((DimName.X,))[0].evaluate({}) == 8
        assert second.forall_extents((DimName.X,))[0].evaluate({}) == 24

    def test_split_of_threads_detected(self):
        grid = GpuGridRes(dim_x(4), dim_x(32))
        blocks = ForallRes(grid, (DimName.X,))
        first, _ = make_split(blocks, DimName.X, 8)
        assert first.has_thread_split()
        assert not blocks.has_thread_split()

    def test_split_of_blocks_not_a_thread_split(self):
        grid = GpuGridRes(dim_x(4), dim_x(32))
        first, _ = make_split(grid, DimName.X, 2)
        assert not first.has_thread_split()
        assert first.split_of_blocks()

    def test_invalid_split_selector(self):
        grid = GpuGridRes(dim_x(4), dim_x(32))
        with pytest.raises(DescendError):
            SplitRes(grid, DimName.X, as_nat(2), "third")

    def test_exec_disjoint_for_split_halves(self):
        grid = GpuGridRes(dim_x(4), dim_x(32))
        blocks = ForallRes(grid, (DimName.X,))
        first, second = make_split(blocks, DimName.X, 8)
        assert exec_disjoint(first, second)
        assert not exec_disjoint(first, first)
        assert not exec_disjoint(blocks, first)

    def test_describe_mentions_forall_and_split(self):
        grid = GpuGridRes(dim_x(4), dim_x(32))
        blocks = ForallRes(grid, (DimName.X,))
        first, _ = make_split(blocks, DimName.X, 8)
        text = first.describe()
        assert "forall" in text and "split" in text and "fst" in text
