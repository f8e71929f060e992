"""Unit tests for :mod:`repro.descend.plan.runtime` — the generated-source support library.

The generated straight-line sources call back into ``rt`` for everything
that touches memory; the contract under test here is the **masking
discipline**: every load/store forwards the generated function's divergence
mask as ``where=``, scalar-local assignments under a mask merge via
``np.where`` (inactive lanes keep their old value), and the runtime error
strings match the per-thread reference interpreter's.  The end-to-end half
drives generated programs with divergent writes (overlapping reads, masked
scatter) through all three engines via the fuzz harness oracle.
"""

import numpy as np
import pytest

from repro.descend.interp.values import MemValue
from repro.descend.plan import runtime as rt
from repro.descend.plan.ir import NatIdxStep, PlaceIR, SlotIdxStep
from repro.descend.views.indexing import LogicalArray
from repro.errors import DescendRuntimeError
from repro.fuzz.generate import KernelSpec
from repro.fuzz.harness import check_spec


class FakeCtx:
    """Records every load/store with its mask; buffers are plain ndarrays."""

    def __init__(self):
        self.loads = []
        self.stores = []

    def load(self, buffer, offsets, where=None):
        self.loads.append((offsets, where))
        return buffer[offsets]

    def store(self, buffer, offsets, value, where=None):
        self.stores.append((offsets, value, where))
        if where is None or where:
            buffer[offsets] = value


def _array_value(data: np.ndarray) -> MemValue:
    return MemValue(buffer=data, logical=LogicalArray.root(data.shape))


def _place(steps=(), root_name="buf", text="buf") -> PlaceIR:
    return PlaceIR(root=0, root_name=root_name, steps=tuple(steps), text=text)


class TestScalarHelpers:
    def test_div_is_floordiv_only_for_integers(self):
        assert rt.div(7, 2) == 3
        assert rt.div(7.0, 2) == 3.5
        assert rt.div(7, 2.0) == 3.5

    def test_logic_ops_cover_scalars_and_arrays(self):
        assert rt.logic_and(True, False) is False
        assert rt.logic_or(False, True) is True
        assert rt.logic_not(False) is True
        mask = np.array([True, False])
        np.testing.assert_array_equal(
            rt.logic_and(mask, np.array([True, True])), [True, False]
        )
        np.testing.assert_array_equal(rt.logic_or(mask, False), [True, False])
        np.testing.assert_array_equal(rt.logic_not(mask), [False, True])

    def test_missing_argument_matches_the_oracle_diagnostic(self):
        with pytest.raises(DescendRuntimeError, match="missing argument `vec`"):
            rt.arg({}, "vec")


class TestMaskedStore:
    def test_scalar_local_store_merges_under_the_mask(self):
        # Divergent register assignment: inactive lanes keep their old value.
        old = np.array([1.0, 2.0, 3.0, 4.0])
        new = np.array([10.0, 20.0, 30.0, 40.0])
        mask = np.array([True, False, True, False])
        merged = rt.store(_place(), old, (), new, None, {}, FakeCtx(), mask)
        np.testing.assert_array_equal(merged, [10.0, 2.0, 30.0, 4.0])

    def test_scalar_local_store_without_mask_replaces_the_value(self):
        assert rt.store(_place(), 1.5, (), 2.5, None, {}, FakeCtx(), None) == 2.5

    def test_element_store_forwards_the_mask_and_keeps_the_root(self):
        data = np.zeros(4)
        value = _array_value(data)
        ctx = FakeCtx()
        mask = np.array([True])
        place = _place([NatIdxStep(2)])
        root = rt.store(place, value, (), 9.0, lambda nat: int(nat), {}, ctx, mask)
        assert root is value  # element stores never rebind the root local
        assert ctx.stores == [(2, 9.0, mask)]
        assert data[2] == 9.0

    def test_slot_indexed_store_reads_the_index_from_idxs(self):
        data = np.zeros(4)
        ctx = FakeCtx()
        rt.store(_place([SlotIdxStep(5)]), _array_value(data), (3,), 7.0, None, {}, ctx, None)
        assert data[3] == 7.0

    def test_whole_array_store_is_the_oracle_error(self):
        with pytest.raises(DescendRuntimeError, match="cannot assign a whole array"):
            rt.store(_place(), _array_value(np.zeros(4)), (), 1.0, None, {}, FakeCtx(), None)


class TestMaskedRead:
    def test_element_read_forwards_the_mask(self):
        data = np.array([5.0, 6.0, 7.0])
        ctx = FakeCtx()
        mask = np.array([True, True])
        assert rt.read(_place([NatIdxStep(1)]), _array_value(data),
                       (), lambda nat: int(nat), {}, ctx, mask) == 6.0
        assert ctx.loads == [(1, mask)]

    def test_scalar_local_read_returns_the_local(self):
        assert rt.read(_place(), 2.25, (), None, {}, FakeCtx(), None) == 2.25

    def test_whole_array_read_returns_a_memvalue(self):
        value = _array_value(np.zeros(4))
        result = rt.read(_place(), value, (), None, {}, FakeCtx(), None)
        assert isinstance(result, MemValue)

    def test_unbound_root_matches_the_oracle_diagnostic(self):
        with pytest.raises(DescendRuntimeError, match="unbound variable `buf`"):
            rt.read(_place(), None, (), None, {}, FakeCtx(), None)

    def test_indexing_a_scalar_is_the_oracle_error(self):
        with pytest.raises(DescendRuntimeError, match="is a scalar and cannot be indexed"):
            rt.read(_place([NatIdxStep(0)]), 1.0, (), None, {}, FakeCtx(), None)


class TestBorrowAndLoops:
    def test_borrowing_an_element_or_scalar_is_an_error(self):
        with pytest.raises(DescendRuntimeError, match="cannot borrow a single element"):
            rt.borrow(_place([NatIdxStep(0)]), _array_value(np.zeros(2)),
                      (), lambda nat: int(nat), {})
        with pytest.raises(DescendRuntimeError, match="cannot borrow a scalar local"):
            rt.borrow(_place(), 1.0, (), None, {})

    def test_foreach_size_requires_an_array(self):
        assert rt.foreach_size(_array_value(np.zeros((3, 2)))) == 3
        with pytest.raises(DescendRuntimeError, match="expects an array value"):
            rt.foreach_size(4.0)


# ---------------------------------------------------------------------------
# End to end: divergent masked writes through the jit engine
# ---------------------------------------------------------------------------

# Hand-built specs (the fuzz generator's format) that force the masked
# scatter/gather paths: every case is run on all three engines by the
# harness oracle, so a wrong mask merge shows up as an engine-parity or
# race-freedom violation.


def _spec(phases, **kwargs) -> KernelSpec:
    defaults = dict(
        num_blocks=2, block_size=4, ept=2, num_inputs=1,
        out_chains=("direct",), use_tmp=False, phases=phases, mutation="",
    )
    defaults.update(kwargs)
    return KernelSpec(**defaults)


class TestDivergentExecution:
    def test_masked_register_merge_under_divergence(self):
        # r diverges on a data-dependent condition, then lands in out0:
        # the scalar-local np.where merge must keep inactive lanes intact.
        spec = _spec((
            ("phase", (
                ("let", "r0", ("in", 0, ("chain", "direct"))),
                ("if_reg", ("eq", ("in", 0, ("chain", "direct")), ("lit", 0.25)),
                 "r0", ("add", ("reg", "r0"), ("lit", 1.0))),
                ("wout", 0, ("reg", "r0")),
            )),
        ))
        result = check_spec(spec, index=0)
        assert result.verdict == "well-typed"
        assert result.ok, [v.as_dict() for v in result.violations]

    def test_masked_scatter_with_divergent_overwrite(self):
        # Baseline write plus a conditional overwrite of the *same* cells:
        # inactive lanes must keep the baseline value (masked scatter).
        spec = _spec((
            ("phase", (
                ("wout", 0, ("in", 0, ("chain", "direct"))),
                ("wout_if", ("ne", ("in", 0, ("chain", "direct")), ("lit", 0.5)),
                 0, ("mul", ("in", 0, ("chain", "direct")), ("lit", 2.0))),
            )),
        ))
        result = check_spec(spec, index=1)
        assert result.verdict == "well-typed"
        assert result.ok, [v.as_dict() for v in result.violations]

    def test_masked_gather_through_reversed_views(self):
        # Reads through a reversed chain while writes go out directly —
        # the gather offsets differ per lane and are masked by divergence.
        spec = _spec((
            ("phase", (
                ("let", "r0", ("in", 0, ("chain", "rev_chunk"))),
                ("wout_if", ("lt", ("in", 0, ("chain", "rev_chunk")), ("lit", 1.0)),
                 0, ("reg", "r0")),
                ("wout", 0, ("add", ("reg", "r0"), ("lit", 0.25))),
            )),
        ))
        result = check_spec(spec, index=2)
        assert result.verdict == "well-typed"
        assert result.ok, [v.as_dict() for v in result.violations]

    def test_shared_tmp_roundtrip_under_divergence(self):
        # Divergent write into shared tmp, sync, cross-thread read back out:
        # exercises masked stores into gpu.shared plus the gather after.
        spec = _spec(
            (
                ("phase", (("wtmp", ("in", 0, ("chain", "direct"))),)),
                ("sync",),
                ("phase", (
                    ("let", "r0", ("tmp", ("t_rev",))),
                    ("wout", 0, ("reg", "r0")),
                )),
            ),
            use_tmp=True,
            ept=1,
        )
        result = check_spec(spec, index=3)
        assert result.verdict == "well-typed"
        assert result.ok, [v.as_dict() for v in result.violations]
