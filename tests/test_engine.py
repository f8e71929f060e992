"""Tests for the warp-vectorized execution engine and its batched recording.

The core property is *parity*: for every kernel the lockstep engines must
produce bit-identical results, exactly equal cycle counts, and the same race
verdicts as the per-thread reference interpreter.
"""

import numpy as np
import pytest

from repro.cudalite.kernels import buggy, histogram, matmul, reduce, scan, stencil, transpose, vector
from repro.errors import DeviceMemoryError, LaunchConfigurationError
from repro.gpusim import CostModel, CostParameters, GpuDevice, RaceDetector
from repro.gpusim.engine import EXECUTION_MODES, get_engine
from repro.gpusim.engine.jit import JitCostModel
from repro.gpusim.races import RecordedAccess


def run_both(run, data):
    """Run a scenario on every engine; returns {mode: (result, launches)}.

    The jit engine runs the vectorized engine's lockstep runner under a
    second name, so it must agree with vectorized exactly.
    """
    return {mode: run(GpuDevice(execution_mode=mode), data) for mode in EXECUTION_MODES}


def assert_parity(out, *, racy=False):
    ref_result, ref_launches = out["reference"]
    vec_result, vec_launches = out["vectorized"]
    jit_result, jit_launches = out["jit"]
    if not racy:
        assert np.array_equal(ref_result, vec_result)
    assert np.array_equal(jit_result, vec_result)
    assert len(ref_launches) == len(vec_launches) == len(jit_launches)
    for ref, vec, jit in zip(ref_launches, vec_launches, jit_launches):
        assert ref.cycles == vec.cycles, (ref.cost.summary(), vec.cost.summary())
        assert ref.cost.summary() == vec.cost.summary() == jit.cost.summary()
        assert ref.barriers == vec.barriers == jit.barriers
        assert bool(ref.races) == bool(vec.races)
        assert len(jit.races) == len(vec.races)
    return ref_launches, vec_launches


class TestKernelParity:
    def test_reduce(self, rng):
        data = rng.random(2048)

        def run(device, data):
            input_buf = device.to_device(data)
            output_buf = device.malloc((32,))
            launch = device.launch(
                reduce.block_reduce_kernel, grid_dim=(32,), block_dim=(64,),
                args=(input_buf, output_buf),
            )
            return device.to_host(output_buf), [launch]

        out = run_both(run, data)
        assert_parity(out)
        assert np.allclose(out["vectorized"][0], data.reshape(32, 64).sum(axis=1))

    def test_transpose(self, rng):
        n, tile, rows = 64, 16, 4
        data = rng.random((n, n))

        def run(device, data):
            input_buf = device.to_device(data.reshape(-1))
            output_buf = device.malloc((n * n,))
            launch = device.launch(
                transpose.transpose_kernel, grid_dim=(n // tile, n // tile),
                block_dim=(tile, rows), args=(input_buf, output_buf, n, tile),
            )
            return device.to_host(output_buf).reshape(n, n), [launch]

        out = run_both(run, data)
        assert_parity(out)
        assert np.allclose(out["vectorized"][0], data.T)

    def test_naive_transpose(self, rng):
        n, tile, rows = 32, 16, 4
        data = rng.random((n, n))

        def run(device, data):
            input_buf = device.to_device(data.reshape(-1))
            output_buf = device.malloc((n * n,))
            launch = device.launch(
                transpose.naive_transpose_kernel, grid_dim=(n // tile, n // tile),
                block_dim=(tile, rows), args=(input_buf, output_buf, n, tile),
            )
            return device.to_host(output_buf).reshape(n, n), [launch]

        out = run_both(run, data)
        assert_parity(out)

    def test_scan(self, rng):
        n, block_size, per_thread = 1024, 32, 4
        blocks = n // (block_size * per_thread)
        data = rng.random(n)

        def run(device, data):
            input_buf = device.to_device(data)
            output_buf = device.malloc((n,))
            sums_buf = device.malloc((blocks,))
            first = device.launch(
                scan.scan_block_kernel, grid_dim=(blocks,), block_dim=(block_size,),
                args=(input_buf, output_buf, sums_buf, per_thread),
            )
            offsets = scan.exclusive_scan_on_host(device.to_host(sums_buf))
            offsets_buf = device.to_device(offsets)
            second = device.launch(
                scan.add_offsets_kernel, grid_dim=(blocks,), block_dim=(block_size,),
                args=(output_buf, offsets_buf, per_thread),
            )
            return device.to_host(output_buf), [first, second]

        out = run_both(run, data)
        assert_parity(out)
        assert np.allclose(out["vectorized"][0], np.cumsum(data))

    def test_matmul(self, rng):
        m = k = n = 16
        tile = 8
        a, b = rng.random((m, k)), rng.random((k, n))

        def run(device, data):
            a_arr, b_arr = data
            a_buf = device.to_device(a_arr.reshape(-1))
            b_buf = device.to_device(b_arr.reshape(-1))
            c_buf = device.malloc((m * n,))
            launch = device.launch(
                matmul.matmul_kernel, grid_dim=(n // tile, m // tile),
                block_dim=(tile, tile), args=(a_buf, b_buf, c_buf, m, k, n, tile),
            )
            return device.to_host(c_buf).reshape(m, n), [launch]

        out = run_both(run, (a, b))
        assert_parity(out)
        assert np.allclose(out["vectorized"][0], a @ b)

    def test_histogram(self, rng):
        # 16-thread blocks hold a partial warp, so every access of both
        # kernels takes the cost model's buffered batched path.
        n, bins, blocks = 512, 16, 4
        keys = rng.integers(0, bins, n).astype(np.float64)

        def run(device, data):
            keys_buf = device.to_device(data)
            partials_buf = device.malloc((blocks * bins,))
            bins_buf = device.malloc((bins,))
            first = device.launch(
                histogram.histogram_partials_kernel, grid_dim=(blocks,), block_dim=(bins,),
                args=(keys_buf, partials_buf, n // blocks),
            )
            second = device.launch(
                histogram.combine_bins_kernel, grid_dim=(1,), block_dim=(bins,),
                args=(partials_buf, bins_buf, blocks),
            )
            return device.to_host(bins_buf), [first, second]

        out = run_both(run, keys)
        assert_parity(out)
        assert np.array_equal(
            out["vectorized"][0], np.bincount(keys.astype(np.int64), minlength=bins)
        )

    def test_stencil(self, rng):
        n, block_size = 256, 32
        data = rng.random(n + 2)

        def run(device, data):
            input_buf = device.to_device(data)
            output_buf = device.malloc((n,))
            launch = device.launch(
                stencil.stencil3_kernel, grid_dim=(n // block_size,), block_dim=(block_size,),
                args=(input_buf, output_buf),
            )
            return device.to_host(output_buf), [launch]

        out = run_both(run, data)
        assert_parity(out)
        assert np.allclose(out["vectorized"][0], (data[:-2] + data[1:-1] + data[2:]) / 3.0)

    @pytest.mark.parametrize(
        "kernel,extra", [
            (vector.scale_vec_kernel, (3.0,)),
            (vector.init_kernel, (7.0,)),
        ],
    )
    def test_vector_kernels(self, rng, kernel, extra):
        data = rng.random(128)

        def run(device, data):
            buf = device.to_device(data)
            launch = device.launch(kernel, grid_dim=(4,), block_dim=(32,), args=(buf, *extra))
            return device.to_host(buf), [launch]

        assert_parity(run_both(run, data))

    def test_saxpy_and_vec_add(self, rng):
        x, y = rng.random(64), rng.random(64)

        def run(device, data):
            x_arr, y_arr = data
            dx, dy = device.to_device(x_arr), device.to_device(y_arr)
            out = device.malloc((64,))
            l1 = device.launch(vector.saxpy_kernel, grid_dim=(2,), block_dim=(32,), args=(dy, dx, 0.5))
            l2 = device.launch(vector.vec_add_kernel, grid_dim=(2,), block_dim=(32,), args=(out, dx, dy))
            return device.to_host(out), [l1, l2]

        out = run_both(run, (x, y))
        assert_parity(out)
        assert np.allclose(out["vectorized"][0], x + (0.5 * x + y))


def branching_reduce_kernel(ctx, input_buf, output_buf):
    """``block_reduce_kernel`` with CUDA's ``if`` branches (reference engine only)."""
    tid = ctx.threadIdx.x
    block_size = ctx.blockDim.x
    base = ctx.blockIdx.x * block_size

    tmp = ctx.shared("tmp", (block_size,), dtype=input_buf.dtype)
    value = ctx.load(input_buf, base + tid)
    ctx.store(tmp, tid, value)
    yield  # __syncthreads()

    stride = block_size // 2
    while stride >= 1:
        if tid < stride:
            left = ctx.load(tmp, tid)
            right = ctx.load(tmp, tid + stride)
            ctx.arith(1)
            ctx.store(tmp, tid, left + right)
        yield  # __syncthreads()
        stride //= 2

    if tid == 0:
        total = ctx.load(tmp, 0)
        ctx.store(output_buf, ctx.blockIdx.x, total)


def branching_scan_block_kernel(ctx, input_buf, output_buf, block_sums, elems_per_thread):
    """``scan_block_kernel`` with CUDA's ``if`` branch (reference engine only)."""
    tid = ctx.threadIdx.x
    block_size = ctx.blockDim.x
    base = (ctx.blockIdx.x * block_size + tid) * elems_per_thread

    running = input_buf.dtype.type(0)
    for j in range(elems_per_thread):
        value = ctx.load(input_buf, base + j)
        ctx.arith(1)
        running = running + value
        ctx.store(output_buf, base + j, running)

    sums = ctx.shared("sums", (block_size,), dtype=input_buf.dtype)
    ctx.store(sums, tid, running)
    yield  # __syncthreads()

    if tid == 0:
        running_block = input_buf.dtype.type(0)
        for i in range(block_size):
            value = ctx.load(sums, i)
            ctx.store(sums, i, running_block)
            ctx.arith(1)
            running_block = running_block + value
        ctx.store(block_sums, ctx.blockIdx.x, running_block)
    yield  # __syncthreads()

    offset = ctx.load(sums, tid)
    for j in range(elems_per_thread):
        value = ctx.load(output_buf, base + j)
        ctx.arith(1)
        ctx.store(output_buf, base + j, value + offset)


class TestPredicationMatchesBranching:
    """A ``where=`` predicate is CUDA's ``if`` around one call.

    On the reference engine the predicated CUDA-lite kernels must match
    their ``if``-style bodies in outputs, cycles, cost, barriers and races.
    """

    @staticmethod
    def assert_same(predicated, branching):
        (pred_out, pred_launch), (branch_out, branch_launch) = predicated, branching
        for pred, branch in zip(pred_out, branch_out):
            assert np.array_equal(pred, branch)
        assert pred_launch.cycles == branch_launch.cycles
        assert pred_launch.cost.summary() == branch_launch.cost.summary()
        assert pred_launch.barriers == branch_launch.barriers > 0
        assert len(pred_launch.races) == len(branch_launch.races)

    def test_reduce(self, rng):
        data = rng.random(2048)

        def run(kernel):
            device = GpuDevice()
            input_buf = device.to_device(data)
            output_buf = device.malloc((32,))
            launch = device.launch(
                kernel, grid_dim=(32,), block_dim=(64,), args=(input_buf, output_buf)
            )
            return [device.to_host(output_buf)], launch

        self.assert_same(run(reduce.block_reduce_kernel), run(branching_reduce_kernel))

    def test_scan(self, rng):
        n, block_size, per_thread = 1024, 32, 4
        blocks = n // (block_size * per_thread)
        data = rng.random(n)

        def run(kernel):
            device = GpuDevice()
            input_buf = device.to_device(data)
            output_buf = device.malloc((n,))
            sums_buf = device.malloc((blocks,))
            launch = device.launch(
                kernel, grid_dim=(blocks,), block_dim=(block_size,),
                args=(input_buf, output_buf, sums_buf, per_thread),
            )
            return [device.to_host(output_buf), device.to_host(sums_buf)], launch

        self.assert_same(run(scan.scan_block_kernel), run(branching_scan_block_kernel))


class TestRaceInjection:
    def test_buggy_transpose_races_on_both_engines(self, rng):
        """The Listing 1 bug must be caught by the batched detector too."""
        n, tile, rows = 32, 16, 4
        data = rng.random((n, n))

        def run(device, data):
            input_buf = device.to_device(data.reshape(-1))
            output_buf = device.malloc((n * n,))
            launch = device.launch(
                buggy.buggy_transpose_kernel, grid_dim=(n // tile, n // tile),
                block_dim=(tile, rows), args=(input_buf, output_buf, n, tile),
            )
            return device.to_host(output_buf), [launch]

        out = run_both(run, data)
        ref_launches, vec_launches = assert_parity(out, racy=True)
        assert len(ref_launches[0].races) == len(vec_launches[0].races) > 0
        assert "data race" in vec_launches[0].races[0].describe()

    def test_scatter_to_same_offset_races(self, device_vectorized):
        def kernel(ctx, out):
            ctx.store(out, 0, ctx.threadIdx.x * 1.0)

        buf = device_vectorized.malloc((4,))
        launch = device_vectorized.launch(kernel, grid_dim=(1,), block_dim=(8,), args=(buf,))
        assert launch.races

    def test_write_beyond_first_lanes_still_detected(self):
        """A single write hidden behind >256 reads at one location must be found."""

        def kernel(ctx, out):
            sh = ctx.shared("s", (1,))
            ctx.load(sh, 0)
            ctx.store(sh, 0, 1.0, where=ctx.threadIdx.x == 300)

        counts = {}
        for mode in ("reference", "vectorized"):
            device = GpuDevice(execution_mode=mode)
            buf = device.malloc((1,))
            launch = device.launch(kernel, grid_dim=(1,), block_dim=(1024,), args=(buf,))
            counts[mode] = len(launch.races)
        assert counts["reference"] == counts["vectorized"] == 1

    def test_shared_race_reports_within_block_offset(self, device_vectorized, rng):
        """Reports show the in-tile offset, not the block-stacked detector key."""
        n, tile, rows = 64, 16, 4
        data = rng.random((n, n))
        input_buf = device_vectorized.to_device(data.reshape(-1))
        output_buf = device_vectorized.malloc((n * n,))
        launch = device_vectorized.launch(
            buggy.buggy_transpose_kernel, grid_dim=(n // tile, n // tile),
            block_dim=(tile, rows), args=(input_buf, output_buf, n, tile),
        )
        assert launch.races
        assert all(report.first.offset < tile * tile for report in launch.races)

    def test_epoch_separation_suppresses_race(self, device_vectorized):
        """A write and a read separated by ctx.sync() must not race."""

        def kernel(ctx, out):
            ctx.store(out, 0, 1.0, where=ctx.threadIdx.x == 0)
            yield
            ctx.load(out, 0, where=ctx.threadIdx.x == 1)

        buf = device_vectorized.malloc((1,), label="flag")
        launch = device_vectorized.launch(kernel, grid_dim=(1,), block_dim=(4,), args=(buf,))
        assert not launch.races


class TestBatchedRecorders:
    def test_batched_cost_equals_scalar_cost(self):
        """Seeded launches give identical costs on every recording path.

        Each launch replays the vectorized engine's slot protocol (a lane's
        slot advances once per access it takes part in) over full-grid
        uniform, masked, single-lane and mixed-slot batches in global and
        shared memory, with 32- to 256-byte segments, 8 to 32 banks and 4-
        or 8-byte bank widths.  300 small launches are followed by a few
        large ones: grids of about 70 blocks with a partial last warp,
        launches of a few hundred batches, and sparse launches whose block
        ids and some addresses lie at 2**50 and beyond, so the spans of
        their ``(block, warp, slot, segment)`` columns multiply past 2**62.
        The scalar ``record_access`` path is the oracle for the batched path
        of ``CostModel`` and for ``JitCostModel``'s streaming one.
        """
        rng = np.random.default_rng(300)
        seen = set()
        wide_launches = 0
        for shape in ["small"] * 300 + ["grid", "long", "sparse"] * 2:
            params = CostParameters(
                global_segment_bytes=int(rng.choice([32, 64, 128, 256])),
                shared_banks=int(rng.choice([8, 16, 32])),
                shared_bank_width=int(rng.choice([4, 8])),
            )
            warp_size = int(rng.choice([4, 8, 32] if shape == "small" else [4, 8]))
            threads_per_block = warp_size * int(rng.integers(1, 3))
            if shape in ("grid", "sparse") or rng.random() < 0.15:
                # A partial last warp keeps JitCostModel off its streaming path.
                threads_per_block += int(rng.integers(1, warp_size))
            wide_grid = shape in ("grid", "sparse")
            num_blocks = int(rng.integers(64, 77) if wide_grid else rng.integers(1, 4))
            num_batches = int(rng.integers(200, 400) if shape == "long" else rng.integers(1, 7))
            lanes = np.arange(num_blocks * threads_per_block)
            lane_blocks = lanes // threads_per_block
            if shape == "sparse":
                lane_blocks = lane_blocks << 50
            lane_warps = (lanes % threads_per_block) // warp_size
            slots = np.zeros(lanes.size, dtype=np.int64)
            scalar = CostModel(params)
            batched = CostModel(params)
            jit = JitCostModel(params, num_blocks, threads_per_block, warp_size)
            global_batches = []
            for _ in range(num_batches):
                space = str(rng.choice(["global", "shared"]))
                draw = rng.random()
                if draw < 0.45:
                    active = lanes
                    kind = "full-uniform" if (slots == slots[0]).all() else "mixed-slot"
                elif draw < 0.9:
                    active = lanes[rng.random(lanes.size) < rng.random()]
                    kind = "masked"
                else:
                    active = lanes[rng.integers(lanes.size, size=1)]
                    kind = "single-lane"
                seen.add((kind, space))
                pattern = int(rng.integers(3))
                if pattern == 0:
                    offsets = active + int(rng.integers(0, 40))
                elif pattern == 1:
                    offsets = active * int(rng.integers(1, 34))
                else:
                    offsets = rng.integers(0, 64, size=active.size)
                addresses = offsets * int(rng.choice([4, 8]))
                if shape == "sparse":
                    far = rng.random(active.size) < 0.3
                    addresses[far] = rng.integers(2**50, 2**62, size=int(far.sum()))
                batch_slots = slots[active].copy()
                slots[active] += 1
                rng.random()  # the access direction, which the cost model does not read
                for lane, slot, address in zip(active, batch_slots, addresses):
                    scalar.record_access(
                        block=int(lane_blocks[lane]), warp=int(lane_warps[lane]),
                        slot=int(slot), address=int(address), space=space,
                    )
                for model in (batched, jit):
                    model.record_access_batch(
                        blocks=lane_blocks[active], warps=lane_warps[active],
                        slots=batch_slots, addresses=addresses, space=space,
                    )
                if space == "global" and active.size:
                    segments = addresses // params.global_segment_bytes
                    global_batches.append(
                        (lane_blocks[active], lane_warps[active], batch_slots, segments)
                    )
            if global_batches:
                spans = [
                    int(column.max()) - int(column.min()) + 1
                    for column in map(np.concatenate, zip(*global_batches))
                ]
                wide_launches += int(np.prod(spans, dtype=object) >= 2**62)
            expected = scalar.finalize(num_blocks, threads_per_block).summary()
            assert batched.finalize(num_blocks, threads_per_block).summary() == expected
            assert jit.finalize(num_blocks, threads_per_block).summary() == expected
        kinds = ("full-uniform", "masked", "mixed-slot", "single-lane")
        assert seen == {(kind, space) for kind in kinds for space in ("global", "shared")}
        # At least one launch folds past int64's safe range, so the ranking
        # fallback of the batched path runs.
        assert wide_launches > 0

    def test_batched_local_space_counts_as_arithmetic(self):
        scalar = CostModel()
        batched = CostModel()
        for _ in range(10):
            scalar.record_access(block=0, warp=0, slot=0, address=0, space="local")
        batched.record_access_batch(
            blocks=np.zeros(10, dtype=np.int64), warps=np.zeros(10, dtype=np.int64),
            slots=np.zeros(10, dtype=np.int64), addresses=np.zeros(10, dtype=np.int64),
            space="local",
        )
        assert scalar.finalize(1, 32).cycles == batched.finalize(1, 32).cycles

    def _batch(self, detector, offsets, blocks, threads, epoch, is_write):
        detector.record_batch(
            buffer_id=1,
            offsets=np.asarray(offsets), blocks=np.asarray(blocks),
            threads=np.asarray(threads), epoch=epoch, is_write=is_write,
            buffer_label="buf",
        )

    def test_batched_write_write_race(self):
        detector = RaceDetector()
        self._batch(detector, [0, 0], [0, 0], [0, 1], epoch=0, is_write=True)
        reports = detector.check()
        assert reports and "data race" in reports[0].describe()

    def test_batched_read_read_no_race(self):
        detector = RaceDetector()
        self._batch(detector, [0, 0], [0, 0], [0, 1], epoch=0, is_write=False)
        assert not detector.check()

    def test_batched_epoch_separation(self):
        detector = RaceDetector()
        self._batch(detector, [0], [0], [0], epoch=0, is_write=True)
        self._batch(detector, [0], [0], [1], epoch=1, is_write=False)
        assert not detector.check()

    def test_batched_cross_block_race_despite_epochs(self):
        detector = RaceDetector()
        self._batch(detector, [0], [0], [0], epoch=0, is_write=True)
        self._batch(detector, [0], [1], [0], epoch=1, is_write=False)
        assert detector.check()

    def test_batched_same_thread_no_race(self):
        detector = RaceDetector()
        self._batch(detector, [0], [0], [0], epoch=0, is_write=True)
        self._batch(detector, [0], [0], [0], epoch=0, is_write=True)
        assert not detector.check()

    def test_batched_races_equal_scalar_races(self):
        """600 seeded launches: ``record_batch`` finds the scalar path's races.

        The scalar ``record`` path, uncapped, is the oracle: the batched
        detector must report the first ``max_reports`` of its racy
        locations in ascending ``(buffer_id, offset)`` order, and every
        reported pair must conflict.  Inputs cover shuffled epoch order,
        block-stacked shared offsets (reported within the block), buffer
        ids of 2**40 and more, negative offsets and a sparse span.
        """
        rng = np.random.default_rng(600)
        buffer_ids = (1, 6, 2 ** 40 + 3, 2 ** 41 + 5)
        shared_size = 4
        outcomes = set()
        for _ in range(600):
            chosen = rng.choice(len(buffer_ids), size=int(rng.integers(1, 4)), replace=False)
            buffers = [
                (buffer_ids[i], str(rng.choice(["dense", "negative", "sparse", "shared"])))
                for i in chosen
            ]
            shared = {bid for bid, kind in buffers if kind == "shared"}
            num_blocks = int(rng.integers(1, 4))
            scalar = RaceDetector(max_reports=10 ** 9)
            batched = RaceDetector(max_reports=int(rng.choice([4, 16])))
            for _ in range(int(rng.integers(1, 10))):
                bid, kind = buffers[int(rng.integers(len(buffers)))]
                n = int(rng.integers(1, 11))
                blocks = rng.integers(0, num_blocks, size=n)
                threads = rng.integers(0, 4, size=n)
                epoch = int(rng.integers(0, 3))
                is_write = bool(rng.random() < 0.35)
                report_offsets = None
                if kind == "dense":
                    offsets = rng.integers(0, 8, size=n)
                elif kind == "negative":
                    offsets = rng.integers(-5, 3, size=n)
                elif kind == "sparse":
                    offsets = rng.choice([0, 1, 2 ** 40], size=n)
                else:
                    report_offsets = rng.integers(0, shared_size, size=n)
                    offsets = blocks * shared_size + report_offsets
                label = f"{kind}{bid}"
                for offset, block, thread in zip(offsets, blocks, threads):
                    scalar.record(
                        RecordedAccess(
                            buffer_id=bid, offset=int(offset), block=int(block),
                            thread=int(thread), epoch=epoch, is_write=is_write,
                            buffer_label=label,
                        )
                    )
                batched.record_batch(
                    buffer_id=bid, offsets=offsets, blocks=blocks, threads=threads,
                    epoch=epoch, is_write=is_write, buffer_label=label,
                    report_offsets=report_offsets,
                )

            def location(access):
                # Batched reports show a shared access's within-block offset.
                if access.buffer_id in shared:
                    return access.buffer_id, access.block * shared_size + access.offset
                return access.buffer_id, access.offset

            expected = sorted({(r.first.buffer_id, r.first.offset) for r in scalar.check()})
            reports = batched.check()
            assert [location(report.first) for report in reports] == (
                expected[: batched.max_reports]
            )
            for report in reports:
                assert location(report.second) == location(report.first)
                assert RaceDetector._conflict(report.first, report.second)
            if len(expected) > batched.max_reports:
                outcomes.add("capped")
            else:
                outcomes.add("racy" if expected else "race-free")
        assert outcomes == {"race-free", "racy", "capped"}

    def test_batched_access_count(self):
        detector = RaceDetector()
        self._batch(detector, [0, 1, 2], [0, 0, 0], [0, 1, 2], epoch=0, is_write=False)
        assert detector.access_count() == 3


class TestEngineSelection:
    def test_unknown_mode_rejected(self):
        with pytest.raises(LaunchConfigurationError):
            GpuDevice(execution_mode="simd")
        with pytest.raises(LaunchConfigurationError):
            get_engine("simd")

    def test_unported_branching_kernel_raises(self, device_vectorized):
        """A plain ``if`` on a thread's own index cannot run in lockstep."""

        def branching_kernel(ctx, out):
            if ctx.threadIdx.x == 0:
                ctx.store(out, 0, 1.0)

        buf = device_vectorized.malloc((4,))
        with pytest.raises(ValueError, match="truth value"):
            device_vectorized.launch(branching_kernel, grid_dim=(1,), block_dim=(4,), args=(buf,))
        assert not device_vectorized.launch_log

    def test_per_launch_override(self, device):
        data = np.arange(64, dtype=np.float64)
        buf = device.to_device(data)
        result = device.launch(
            vector.scale_vec_kernel, grid_dim=(2,), block_dim=(32,),
            args=(buf, 2.0), execution_mode="vectorized",
        )
        assert result.execution_mode == "vectorized"
        assert np.array_equal(device.to_host(buf), data * 2.0)
        assert device.launch_log[-1].execution_mode == "vectorized"


class TestVecCtxSemantics:
    def test_masked_out_of_bounds_lanes_are_not_accesses(self):
        """Inactive lanes may hold out-of-range offsets (like reduce's tid+stride)."""

        def kernel(ctx, buf):
            tid = ctx.threadIdx.x
            ctx.load(buf, tid * 1000, where=tid < 2)  # lanes >= 2 out of range

        def run(device, _):
            buf = device.malloc((2000,))
            launch = device.launch(kernel, grid_dim=(1,), block_dim=(8,), args=(buf,))
            return device.to_host(buf), [launch]

        ref_launches, _ = assert_parity(run_both(run, None))
        assert ref_launches[0].cost.global_accesses == 2

    def test_unmasked_out_of_bounds_raises(self, device_vectorized):
        def kernel(ctx, buf):
            ctx.load(buf, ctx.threadIdx.x + 100)

        buf = device_vectorized.malloc((8,))
        with pytest.raises(DeviceMemoryError):
            device_vectorized.launch(kernel, grid_dim=(1,), block_dim=(8,), args=(buf,))

    def test_shared_memory_is_per_block(self, device_vectorized):
        """Each block sees its own copy of a shared buffer."""

        def kernel(ctx, out):
            sh = ctx.shared("s", (1,))
            ctx.store(sh, 0, ctx.blockIdx.x * 1.0, where=ctx.threadIdx.x == 0)
            yield
            second = ctx.threadIdx.x == 1
            ctx.store(out, ctx.blockIdx.x, ctx.load(sh, 0, where=second), where=second)

        out = device_vectorized.malloc((4,))
        launch = device_vectorized.launch(kernel, grid_dim=(4,), block_dim=(2,), args=(out,))
        assert np.array_equal(device_vectorized.to_host(out), np.arange(4, dtype=np.float64))
        assert not launch.races

    def test_local_memory_parity(self, rng):
        """ctx.local gives each thread a private row; cost folds into arithmetic."""

        def kernel(ctx, out):
            scratch = ctx.local((2,))
            ctx.store(scratch, 0, ctx.threadIdx.x * 1.0)
            ctx.store(out, ctx.global_thread_id, ctx.load(scratch, 0) * 2.0)

        results = {}
        for mode in ("reference", "vectorized"):
            device = GpuDevice(execution_mode=mode)
            out = device.malloc((8,))
            launch = device.launch(kernel, grid_dim=(2,), block_dim=(4,), args=(out,))
            results[mode] = (device.to_host(out), launch)
        ref_out, ref_launch = results["reference"]
        vec_out, vec_launch = results["vectorized"]
        assert np.array_equal(ref_out, vec_out)
        assert np.array_equal(vec_out, np.tile(np.arange(4, dtype=np.float64) * 2.0, 2))
        assert ref_launch.cycles == vec_launch.cycles
        assert ref_launch.cost.summary() == vec_launch.cost.summary()
        assert not vec_launch.races

    def test_local_memory_masked_lanes(self, device_vectorized):
        """Masked lanes neither touch their private row nor advance their slot."""

        def kernel(ctx, out):
            scratch = ctx.local((1,))
            active = ctx.threadIdx.x < 2
            ctx.store(scratch, 0, 1.0, where=active)
            ctx.store(out, ctx.threadIdx.x, ctx.load(scratch, 0, where=active), where=active)

        out = device_vectorized.malloc((4,))
        launch = device_vectorized.launch(kernel, grid_dim=(1,), block_dim=(4,), args=(out,))
        assert np.array_equal(device_vectorized.to_host(out), [1.0, 1.0, 0.0, 0.0])
        assert not launch.races

    def test_barrier_accounting_matches_reference(self, device, device_vectorized, rng):
        data = rng.random(256)
        results = []
        for dev in (device, device_vectorized):
            buf = dev.to_device(data)
            out = dev.malloc((4,))
            launch = dev.launch(
                reduce.block_reduce_kernel, grid_dim=(4,), block_dim=(64,), args=(buf, out)
            )
            results.append(launch)
        assert results[0].barriers == results[1].barriers > 0
