"""Tests for the GPU simulator substrate: buffers, launches, races, cost model."""

import numpy as np
import pytest

from repro.errors import (
    BarrierDivergenceError,
    DataRaceError,
    DeviceMemoryError,
    LaunchConfigurationError,
)
from repro.gpusim import CostModel, CostParameters
from repro.gpusim.buffer import DeviceBuffer, HostBuffer
from repro.gpusim.cost import MemoryAccess
from repro.gpusim.device import CopyDirection
from repro.gpusim.races import RaceDetector, RecordedAccess


class TestBuffers:
    def test_allocate_and_fill(self):
        buf = DeviceBuffer.allocate((4, 4), dtype=np.float64, fill=2.5)
        assert buf.size == 16
        assert np.all(buf.as_array() == 2.5)

    def test_out_of_bounds_read(self):
        buf = DeviceBuffer.allocate((4,), dtype=np.float64)
        with pytest.raises(DeviceMemoryError):
            buf.read(4)
        with pytest.raises(DeviceMemoryError):
            buf.write(-1, 0.0)

    def test_invalid_shape(self):
        with pytest.raises(DeviceMemoryError):
            DeviceBuffer.allocate((0,), dtype=np.float64)

    def test_unknown_space(self):
        with pytest.raises(DeviceMemoryError):
            DeviceBuffer.allocate((4,), space="l2")

    def test_host_roundtrip(self):
        host = HostBuffer.from_array(np.arange(8, dtype=np.float64))
        dev = DeviceBuffer.allocate((8,), dtype=np.float64)
        dev.copy_from_host(host)
        back = HostBuffer.zeros((8,))
        dev.copy_to_host(back)
        assert np.array_equal(back.as_array(), np.arange(8))

    def test_size_mismatch_copy(self):
        host = HostBuffer.zeros((4,))
        dev = DeviceBuffer.allocate((8,))
        with pytest.raises(DeviceMemoryError):
            dev.copy_from_host(host)


class TestDevice:
    def test_memcpy_direction_enforced(self, device):
        host = HostBuffer.zeros((8,))
        dev = device.malloc((8,))
        device.memcpy(dev, host, CopyDirection.HOST_TO_DEVICE)
        device.memcpy(host, dev, CopyDirection.DEVICE_TO_HOST)
        with pytest.raises(DeviceMemoryError):
            device.memcpy(host, dev, CopyDirection.HOST_TO_DEVICE)
        with pytest.raises(DeviceMemoryError):
            device.memcpy(dev, host, CopyDirection.DEVICE_TO_HOST)

    def test_launch_validation(self, device):
        def kernel(ctx):
            return

        with pytest.raises(LaunchConfigurationError):
            device.launch(kernel, grid_dim=(1,), block_dim=(2048,))
        # zero extents are rejected while normalizing, before validation
        with pytest.raises(DeviceMemoryError):
            device.launch(kernel, grid_dim=(0,), block_dim=(32,))

    def test_empty_and_negative_dims_rejected(self, device):
        from repro.gpusim.launch import normalize_dim3

        for bad in (0, -1, (0,), (4, 0), (1, 2, -3)):
            with pytest.raises(DeviceMemoryError):
                normalize_dim3(bad)
        with pytest.raises(DeviceMemoryError):
            normalize_dim3((1, 2, 3, 4))
        assert normalize_dim3(4) == (4, 1, 1)
        assert normalize_dim3((2, 3)) == (2, 3, 1)

    def test_simple_launch_and_allocation_tracking(self, device):
        buf = device.to_device(np.arange(32, dtype=np.float64))
        assert device.allocated_bytes() == 32 * 8

        def kernel(ctx, data):
            i = ctx.blockIdx.x * ctx.blockDim.x + ctx.threadIdx.x
            ctx.store(data, i, ctx.load(data, i) + 1.0)

        result = device.launch(kernel, grid_dim=(4,), block_dim=(8,), args=(buf,))
        assert np.array_equal(device.to_host(buf), np.arange(32) + 1.0)
        assert result.cycles > 0
        assert device.launch_log[-1] is result

    def test_shared_memory_is_per_block(self, device):
        out = device.malloc((4,), dtype=np.float64)

        def kernel(ctx, out_buf):
            sh = ctx.shared("s", (1,), dtype=np.float64)
            if ctx.threadIdx.x == 0:
                ctx.store(sh, 0, float(ctx.blockIdx.x))
            yield
            if ctx.threadIdx.x == 1:
                ctx.store(out_buf, ctx.blockIdx.x, ctx.load(sh, 0))

        device.launch(kernel, grid_dim=(4,), block_dim=(2,), args=(out,))
        assert np.array_equal(device.to_host(out), np.arange(4, dtype=np.float64))

    def test_barrier_divergence_detected(self, device):
        def kernel(ctx):
            if ctx.threadIdx.x < 2:
                yield

        with pytest.raises(BarrierDivergenceError):
            device.launch(kernel, grid_dim=(1,), block_dim=(4,))

    def test_raise_on_races(self, device):
        buf = device.malloc((1,), dtype=np.float64)

        def kernel(ctx, out):
            ctx.store(out, 0, float(ctx.threadIdx.x))

        result = device.launch(kernel, grid_dim=(1,), block_dim=(8,), args=(buf,))
        assert result.races
        with pytest.raises(DataRaceError):
            result.raise_on_races()


class TestRaceDetector:
    @staticmethod
    def _access(thread, epoch, write, block=0, offset=0):
        return RecordedAccess(buffer_id=1, offset=offset, block=block, thread=thread, epoch=epoch, is_write=write)

    def test_write_write_same_epoch_is_a_race(self):
        detector = RaceDetector()
        detector.record(self._access(0, 0, True))
        detector.record(self._access(1, 0, True))
        assert detector.check()

    def test_read_read_is_not_a_race(self):
        detector = RaceDetector()
        detector.record(self._access(0, 0, False))
        detector.record(self._access(1, 0, False))
        assert not detector.check()

    def test_barrier_separation_removes_race(self):
        detector = RaceDetector()
        detector.record(self._access(0, 0, True))
        detector.record(self._access(1, 1, False))
        assert not detector.check()

    def test_cross_block_accesses_race_despite_epochs(self):
        detector = RaceDetector()
        detector.record(self._access(0, 0, True, block=0))
        detector.record(self._access(0, 1, False, block=1))
        assert detector.check()

    def test_same_thread_never_races_with_itself(self):
        detector = RaceDetector()
        detector.record(self._access(0, 0, True))
        detector.record(self._access(0, 0, True))
        assert not detector.check()

    def test_report_description(self):
        detector = RaceDetector()
        detector.record(self._access(0, 0, True))
        detector.record(self._access(1, 0, False))
        report = detector.check()[0]
        assert "data race" in report.describe()


class TestCostModel:
    def _warp_access(self, lane, address, slot=0, write=False, space="global"):
        return MemoryAccess(block=0, warp=0, slot=slot, address=address, is_write=write, space=space)

    def test_coalesced_warp_costs_fewer_transactions_than_strided(self):
        params = CostParameters()
        coalesced = CostModel(params)
        strided = CostModel(params)
        for lane in range(32):
            coalesced.record_access(self._warp_access(lane, lane * 8))
            strided.record_access(self._warp_access(lane, lane * 8 * 64))
        assert (
            coalesced.finalize(1, 32).global_transactions
            < strided.finalize(1, 32).global_transactions
        )

    def test_bank_conflicts_increase_shared_cost(self):
        params = CostParameters()
        no_conflict = CostModel(params)
        conflict = CostModel(params)
        for lane in range(32):
            no_conflict.record_access(self._warp_access(lane, lane * 4, space="shared"))
            conflict.record_access(self._warp_access(lane, lane * 4 * 32, space="shared"))
        assert (
            conflict.finalize(1, 32).shared_cycles > no_conflict.finalize(1, 32).shared_cycles
        )

    def test_arithmetic_and_barriers_contribute(self):
        model = CostModel()
        base = model.finalize(1, 32).cycles
        model.record_arithmetic(1000)
        model.record_barrier(10)
        assert model.finalize(1, 32).cycles > base

    def test_accesses_at_different_slots_not_merged(self):
        model = CostModel()
        model.record_access(self._warp_access(0, 0, slot=0))
        model.record_access(self._warp_access(0, 0, slot=1))
        assert model.finalize(1, 32).global_transactions == 2
