"""Tests for the benchmark harness (Figure 8 and the ablations)."""

import contextlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.benchsuite import BENCHMARKS, SIZES, run_benchmark_pair, workload
from repro.benchsuite.ablation import coalescing_ablation, typecheck_cost
from repro.benchsuite.enginebench import (
    EngineBenchResult,
    EngineBenchRow,
    compare_engines,
    run_descend_engine_bench,
    run_engine_bench,
    write_report,
)
from repro.benchsuite.figure8 import Figure8Result, Figure8Row, run_figure8
from repro.benchsuite.report import format_bytes, format_table
from repro.benchsuite.workloads import all_workloads
from repro.errors import BenchmarkError


class TestWorkloads:
    def test_all_cells_of_figure8_are_defined(self):
        workloads = all_workloads()
        assert len(workloads) == len(BENCHMARKS) * len(SIZES)

    def test_sizes_grow_monotonically(self):
        for benchmark in BENCHMARKS:
            footprints = [workload(benchmark, size).footprint_bytes() for size in SIZES]
            assert footprints == sorted(footprints)
            assert footprints[0] < footprints[-1]

    def test_unknown_benchmark(self):
        with pytest.raises(BenchmarkError):
            workload("sort", "small")

    def test_unknown_size(self):
        with pytest.raises(BenchmarkError):
            workload("reduce", "huge")

    def test_labels(self):
        assert workload("reduce", "small").label == "reduce/small"

    def test_explicit_scale_overrides_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2")
        scaled = workload("reduce", "small", scale=3)
        from_env = workload("reduce", "small")
        assert scaled.params["n"] == 3 * 4096
        assert from_env.params["n"] == 2 * 4096
        # the explicit scale must not leak into the environment
        assert workload("reduce", "small").params["n"] == 2 * 4096

    def test_scale_one_is_default(self):
        assert workload("matmul", "small", scale=1).params == workload("matmul", "small").params

    def test_invalid_scale_falls_back(self):
        assert workload("reduce", "small", scale=0).params["n"] == 4096


class TestRunner:
    @pytest.mark.parametrize("bench_name", BENCHMARKS)
    def test_small_cells_run_and_match(self, bench_name):
        run = run_benchmark_pair(bench_name, "small")
        assert run.cuda.correct and run.descend.correct
        assert run.cuda.races == 0 and run.descend.races == 0
        # the paper's headline result: Descend performs like handwritten CUDA
        assert run.relative_runtime == pytest.approx(1.0, rel=0.10)

    def test_relative_runtime_definition(self):
        run = run_benchmark_pair("transpose", "small")
        assert run.relative_runtime == pytest.approx(run.descend.cycles / run.cuda.cycles)

    def test_vectorized_engine_gives_same_figure8_cell(self):
        reference = run_benchmark_pair("transpose", "small")
        vectorized = run_benchmark_pair("transpose", "small", engine="vectorized")
        assert vectorized.cuda.cycles == reference.cuda.cycles
        assert vectorized.descend.cycles == reference.descend.cycles
        assert vectorized.cuda.correct and vectorized.descend.correct
        assert vectorized.relative_runtime == pytest.approx(reference.relative_runtime)

    def test_workload_inputs_do_not_depend_on_the_hash_seed(self, tmp_path):
        # Every Figure 8 workload plus the histogram and stencil ones, drawn
        # in two processes whose str hashes are salted differently.
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from repro.benchsuite.enginebench import DESCEND_BENCHMARKS\n"
            "from repro.benchsuite.runner import _reference_and_data\n"
            "from repro.benchsuite.workloads import SIZES, workload\n"
            "arrays = {}\n"
            "for name in DESCEND_BENCHMARKS:\n"
            "    for size in SIZES:\n"
            "        data, _ = _reference_and_data(workload(name, size, scale=1))\n"
            "        for i, array in enumerate(data if isinstance(data, tuple) else (data,)):\n"
            "            arrays[f'{name}-{size}-{i}'] = array\n"
            "np.savez(sys.argv[1], **arrays)\n"
        )
        src_dir = str(Path(__file__).resolve().parent.parent / "src")
        drawn = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
            path = tmp_path / f"inputs-{hash_seed}.npz"
            proc = subprocess.run(
                [sys.executable, "-c", script, str(path)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            with np.load(path) as arrays:
                drawn.append({key: arrays[key] for key in arrays.files})
        assert len(drawn[0]) == 6 * len(SIZES) + 3  # matmul draws two arrays
        assert drawn[0].keys() == drawn[1].keys()
        for key, array in drawn[0].items():
            assert np.array_equal(array, drawn[1][key]), key

    def test_scaled_pair_runs_bigger_footprint(self):
        base = run_benchmark_pair("reduce", "small", engine="vectorized")
        scaled = run_benchmark_pair("reduce", "small", engine="vectorized", scale=2)
        assert scaled.workload.params["n"] == 2 * base.workload.params["n"]
        assert scaled.cuda.correct and scaled.descend.correct


class TestEngineBench:
    def test_compare_engines_parity_and_speedup(self):
        row = compare_engines("transpose", "small")
        assert row.cycles_match
        assert row.reference_cycles == row.vectorized_cycles > 0
        assert row.speedup > 1.0

    def test_run_engine_bench_and_report(self, tmp_path):
        result = run_engine_bench(benchmarks=("reduce",), sizes=("small",))
        assert len(result.rows) == 1
        assert result.all_cycles_match
        table = result.to_table()
        assert "reduce" in table and "speedup" in table
        path = tmp_path / "BENCH_test.json"
        payload = write_report(result, str(path), quick=True)
        on_disk = json.loads(path.read_text())
        assert on_disk["kind"] == "engine-bench"
        assert on_disk["all_cycles_match"] is True
        assert on_disk["quick"] is True
        assert on_disk["workloads"][0]["benchmark"] == "reduce"
        assert payload["geometric_mean_speedup"] == pytest.approx(
            on_disk["geometric_mean_speedup"]
        )

    def test_descend_engine_bench_parity_and_report(self, tmp_path):
        result = run_descend_engine_bench(
            benchmarks=("transpose",), sizes=("small",), scales=(1,)
        )
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.variant == "descend" and row.scale == 1
        assert row.cycles_match
        assert row.speedup > 1.0
        path = tmp_path / "BENCH_descend_test.json"
        payload = write_report(result, str(path), quick=True)
        on_disk = json.loads(path.read_text())
        assert on_disk["kind"] == "descend-engine-bench"
        assert on_disk["workloads"][0]["variant"] == "descend"
        assert payload["all_cycles_match"] is True

    def test_descend_compare_engines_scaled(self):
        row = compare_engines("reduce", "small", variant="descend", scale=2)
        assert row.scale == 2
        assert row.cycles_match

    def test_aggregates(self):
        result = EngineBenchResult(
            rows=[
                EngineBenchRow("a", "small", 10.0, 10.0, 4.0, 1.0, 8),
                EngineBenchRow("b", "small", 20.0, 20.0, 9.0, 1.0, 8),
            ]
        )
        assert result.all_cycles_match
        assert result.min_speedup == pytest.approx(4.0)
        assert result.geometric_mean_speedup == pytest.approx(6.0)
        mismatched = EngineBenchRow("c", "small", 10.0, 11.0, 1.0, 1.0, 8)
        assert not mismatched.cycles_match


class TestFigure8:
    def test_partial_sweep_and_mean(self):
        result = run_figure8(benchmarks=("transpose",), sizes=("small",))
        assert len(result.rows) == 1
        assert 0.8 < result.geometric_mean < 1.2
        table = result.to_table()
        assert "transpose" in table and "geometric mean" in table
        payload = result.as_dict()
        assert payload["rows"][0]["benchmark"] == "transpose"

    def test_geometric_mean_formula(self):
        result = Figure8Result(
            rows=[
                Figure8Row("a", "small", 1.0, 2.0, 2.0, 8),
                Figure8Row("b", "small", 1.0, 0.5, 0.5, 8),
            ]
        )
        assert result.geometric_mean == pytest.approx(math.sqrt(2.0 * 0.5))


class TestAblations:
    def test_typecheck_cost_reports_all_programs(self):
        timings = typecheck_cost(repeats=1)
        assert {t.program for t in timings} == {"scale_vec", "reduce", "transpose", "scan", "matmul"}
        assert all(t.seconds >= 0 for t in timings)

    def test_coalescing_ablation_tiled_wins(self):
        result = coalescing_ablation(matrix_size=32, tile=16, rows=4)
        assert result.naive_transactions > result.tiled_transactions
        assert result.speedup > 1.0


class TestReport:
    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [[1, 2.5], ["xx", 3]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_bytes(self):
        assert format_bytes(512) == "512.0 B"
        assert format_bytes(2048) == "2.0 KiB"
        assert "MiB" in format_bytes(8 * 1024 * 1024)


class TestBudgetGuard:
    def test_budget_skips_reference_column(self, tmp_path):
        result = run_descend_engine_bench(
            benchmarks=("transpose",), rows=(("small", 1),), budget_s=0.0
        )
        row = result.rows[0]
        assert row.skipped == "budget"
        assert row.reference_cycles is None and row.reference_wall_s is None
        assert row.cycles_match is None and row.speedup is None
        assert row.vectorized_cycles > 0
        assert row.as_dict()["skipped"] == "budget"
        # Skipped rows are excluded from the aggregates and the parity gate.
        assert result.all_cycles_match
        assert math.isnan(result.geometric_mean_speedup)
        assert result.as_dict()["skipped_rows"] == 1
        assert "skip:budget" in result.to_table()
        payload = write_report(result, str(tmp_path / "BENCH_skip.json"), quick=True)
        assert payload["workloads"][0]["skipped"] == "budget"
        # An all-skipped sweep must still serialize to *valid* JSON: the
        # NaN aggregates become null, never a bare NaN token.
        text = (tmp_path / "BENCH_skip.json").read_text()
        assert "NaN" not in text and "Infinity" not in text
        strict = json.loads(text, parse_constant=lambda c: pytest.fail(f"non-JSON constant {c}"))
        assert strict["geometric_mean_speedup"] is None
        assert strict["min_speedup"] is None
        assert strict["workloads"][0]["speedup"] is None

    def test_generous_budget_runs_reference_column(self):
        result = run_descend_engine_bench(
            benchmarks=("transpose",), rows=(("small", 1),), budget_s=1e9
        )
        assert result.rows[0].skipped is None
        assert result.rows[0].cycles_match

    def test_default_rows_cover_large_and_scale_16(self):
        from repro.benchsuite.enginebench import DESCEND_ROWS

        assert ("small", 16) in DESCEND_ROWS
        assert ("large", 8) in DESCEND_ROWS

    def test_budget_estimate_is_deterministic(self):
        from repro.benchsuite.enginebench import (
            REF_SECONDS_PER_CYCLE,
            estimate_reference_wall_s,
        )

        assert estimate_reference_wall_s(1000.0) == 1000.0 * REF_SECONDS_PER_CYCLE

    def test_default_budget_from_environment(self, monkeypatch):
        from repro.benchsuite.enginebench import DEFAULT_REF_BUDGET_S, default_budget_s

        monkeypatch.setenv("REPRO_BENCH_BUDGET_S", "12.5")
        assert default_budget_s() == 12.5
        monkeypatch.setenv("REPRO_BENCH_BUDGET_S", "not-a-number")
        assert default_budget_s() == DEFAULT_REF_BUDGET_S


@contextlib.contextmanager
def _store_location(tmp_path, backend):
    """A store path (local dir) or URL (in-process HTTP endpoint) to sweep against."""
    path = str(tmp_path / "store")
    if backend == "local":
        yield path
        return
    from repro.descend.api import LocalBackend
    from repro.descend.serve import ServeConfig, ServerThread

    config = ServeConfig(
        str(tmp_path / "serve.sock"), store_path=path, store_http_port=0
    )
    with ServerThread(LocalBackend(label="bench-http"), config) as thread:
        yield thread.store_url


class TestSweepOrchestrator:
    def test_parallel_rows_match_serial_modulo_timing(self, tmp_path):
        """The --jobs sweep must reproduce the serial report byte-for-byte
        up to wall-clock fields (the ISSUE acceptance criterion)."""
        kwargs = dict(benchmarks=("reduce", "transpose"), rows=(("small", 1),), repeats=1)
        serial = run_descend_engine_bench(**kwargs)
        parallel = run_descend_engine_bench(
            **kwargs, jobs=2, store_path=str(tmp_path / "store")
        )

        def stable(row):
            drop = (
                "reference_wall_s", "vectorized_wall_s", "jit_wall_s",
                "speedup", "jit_speedup", "host",
            )
            return {k: v for k, v in row.as_dict().items() if k not in drop}

        assert [stable(r) for r in serial.rows] == [stable(r) for r in parallel.rows]
        assert parallel.kind == serial.kind == "descend-engine-bench"
        # The workers warmed the shared artifact store.
        from repro.descend.store import ArtifactStore

        assert ArtifactStore(tmp_path / "store").stats()["entries"] > 0

    def test_serial_sweep_warms_the_store_too(self, tmp_path):
        from repro.descend.driver import session_scope
        from repro.descend.store import ArtifactStore

        with session_scope():
            run_descend_engine_bench(
                benchmarks=("transpose",), rows=(("small", 1),), budget_s=0.0,
                store_path=str(tmp_path / "store"),
            )
        assert ArtifactStore(tmp_path / "store").stats()["entries"] > 0

    def test_serial_sweep_uses_the_requested_store_not_the_active_one(self, tmp_path):
        from repro.descend.driver import CompileSession, active_session, session_scope
        from repro.descend.store import ArtifactStore

        store_a = ArtifactStore(tmp_path / "a")
        with session_scope(CompileSession().attach_store(store_a)):
            run_descend_engine_bench(
                benchmarks=("transpose",), rows=(("small", 1),), budget_s=0.0,
                store_path=str(tmp_path / "b"),
            )
            # The sweep warmed /b (the explicit request), not the session's
            # /a, and did not leave its store attached to the active session.
            assert active_session().store is store_a
        assert ArtifactStore(tmp_path / "b").stats()["entries"] > 0
        assert store_a.stats()["entries"] == 0

    @pytest.mark.parametrize("backend", ["local", "http"])
    def test_warm_store_workers_deserialize_plans_without_relowering(
        self, tmp_path, backend
    ):
        """Cross-process plan reuse: a `--jobs 2 --store` sweep against a
        warm store must run ZERO `lower.plan` compute passes in its workers —
        plans come out of the store as data, with no rehydration re-lowering
        (the serializable-plan-IR acceptance criterion).  A store *URL*
        routes the same sweep through the TCP dispatcher and the daemon's
        HTTP store endpoint; the property must hold fleet-wide."""
        with _store_location(tmp_path, backend) as store_path:
            kwargs = dict(
                benchmarks=("transpose",), rows=(("small", 1),), repeats=1,
                jobs=2, store_path=store_path,
            )
            cold = run_descend_engine_bench(**kwargs)
            cold_plan = cold.compile_passes.get("lower.plan", {})
            assert cold_plan.get("compute", 0) > 0  # the first sweep lowered

            warm = run_descend_engine_bench(**kwargs)
            warm_plan = warm.compile_passes.get("lower.plan", {})
            assert warm_plan.get("compute", 0) == 0
            assert warm_plan.get("store", 0) >= 1  # served straight from the store
            # The optimization pipeline only runs on cold lowerings.
            assert "lower.plan.opt" not in warm.compile_passes
            assert warm.rows[0].cycles_match
            # Every measured row names the worker that ran it.
            assert all(row.host for row in warm.rows)
            # The pass summary also lands in the JSON report for CI to grep.
            payload = warm.as_dict()
            assert payload["compile_passes"]["lower.plan"].get("compute", 0) == 0

    def test_serial_sweep_records_compile_passes(self, tmp_path):
        from repro.descend.driver import session_scope

        with session_scope():
            result = run_descend_engine_bench(
                benchmarks=("transpose",), rows=(("small", 1),), budget_s=1e9,
            )
        assert result.compile_passes.get("lower.plan", {}).get("compute", 0) == 1
        assert result.compile_passes.get("typeck", {}).get("compute", 0) >= 1

    def test_worker_failure_aborts_the_sweep(self):
        from repro.benchsuite.dispatch import dispatch_cells, make_cells

        cells = make_cells("descend", [("no-such-benchmark", "small", 1)], 1, None)
        with pytest.raises(BenchmarkError, match="no-such-benchmark"):
            dispatch_cells(cells, jobs=2)

    def test_storeless_parallel_sweep_leaves_repro_store_alone(self, tmp_path, monkeypatch):
        """A `--jobs` sweep without a store runs storeless workers: they must
        not fall back to the REPRO_STORE a serial-path CLI call would use."""
        ambient = tmp_path / "ambient-store"
        ambient.mkdir()
        monkeypatch.setenv("REPRO_STORE", str(ambient))
        result = run_descend_engine_bench(
            benchmarks=("transpose",), rows=(("small", 1),), budget_s=0.0, jobs=2,
        )
        assert [row.benchmark for row in result.rows] == ["transpose"]
        assert list(ambient.iterdir()) == []

    def test_make_cells_preserves_sweep_order(self):
        from repro.benchsuite.dispatch import make_cells

        cells = make_cells("cudalite", [("reduce", "small", None), ("scan", "medium", 2)], 3, 1.5)
        assert [c["index"] for c in cells] == [0, 1]
        assert cells[1] == {
            "index": 1,
            "variant": "cudalite",
            "benchmark": "scan",
            "size": "medium",
            "scale": 2,
            "repeats": 3,
            "budget_s": 1.5,
            "device_s_per_cycle": None,
        }


class TestSweepDispatch:
    """The TCP dispatcher: protocol, work stealing, requeue, row merging."""

    CELL = {
        "index": 0, "variant": "descend", "benchmark": "reduce",
        "size": "small", "scale": 1, "repeats": 1, "budget_s": None,
    }
    ROW = {
        "benchmark": "reduce", "size": "small", "variant": "descend", "scale": 1,
        "reference_cycles": 10.0, "vectorized_cycles": 10.0,
        "reference_wall_s": 0.5, "vectorized_wall_s": 0.1,
        "jit_cycles": 10.0, "jit_wall_s": 0.05,
        "footprint_bytes": 1024, "skipped": None, "retries": 0,
        "host": "fake-worker:1",
    }

    @staticmethod
    def _connect(coordinator, host="fake-worker:1"):
        import socket

        from repro.descend.api import encode_frame

        conn = socket.create_connection(coordinator.address, timeout=5.0)
        reader = conn.makefile("rb")
        conn.sendall(encode_frame({"op": "hello", "host": host}))
        assert json.loads(reader.readline()) == {"op": "welcome"}
        return conn, reader

    def test_row_round_trips_through_wire_format(self):
        row = EngineBenchRow.from_dict(self.ROW)
        assert row.as_dict()["cycles_match"] is True
        assert EngineBenchRow.from_dict(row.as_dict()).as_dict() == row.as_dict()

    def test_coordinator_feeds_a_pulling_worker(self):
        from repro.benchsuite.dispatch import SweepCoordinator
        from repro.descend.api import encode_frame

        passes = {}
        with SweepCoordinator([dict(self.CELL)], pass_totals=passes) as coordinator:
            conn, reader = self._connect(coordinator)
            with conn:
                conn.sendall(encode_frame({"op": "next"}))
                reply = json.loads(reader.readline())
                assert reply["op"] == "cell"
                assert reply["cell"]["benchmark"] == "reduce"
                assert reply["epoch"] == 0  # first attempt
                conn.sendall(encode_frame({
                    "op": "result", "index": 0, "row": dict(self.ROW),
                    "error": None, "passes": {"lower.plan": {"store": 1}},
                    "host": "fake-worker:1",
                }))
                conn.sendall(encode_frame({"op": "next"}))
                assert json.loads(reader.readline()) == {"op": "done"}
            assert coordinator.wait(5.0)
            rows = coordinator.result()
        assert [row.host for row in rows] == ["fake-worker:1"]
        assert passes == {"lower.plan": {"store": 1}}

    def test_connection_lost_mid_cell_requeues_with_advanced_epoch(self):
        from repro.benchsuite.dispatch import SweepCoordinator
        from repro.descend.api import encode_frame

        with SweepCoordinator([dict(self.CELL)], max_attempts=3) as coordinator:
            conn, reader = self._connect(coordinator, host="dying-worker:1")
            conn.sendall(encode_frame({"op": "next"}))
            assert json.loads(reader.readline())["op"] == "cell"
            # Dies holding the cell: the attempt is charged.  (makefile()
            # holds a dup of the socket — both must go for the EOF to land.)
            reader.close()
            conn.close()

            conn, reader = self._connect(coordinator, host="healthy-worker:2")
            with conn:
                deadline = 50
                while True:
                    conn.sendall(encode_frame({"op": "next"}))
                    reply = json.loads(reader.readline())
                    if reply["op"] == "cell":
                        break
                    assert reply["op"] == "wait" and deadline > 0
                    deadline -= 1
                    time.sleep(0.05)
                assert reply["epoch"] == 1  # the requeue advanced the fault epoch
                conn.sendall(encode_frame({
                    "op": "result", "index": 0, "row": dict(self.ROW),
                    "error": None, "passes": {}, "host": "healthy-worker:2",
                }))
            assert coordinator.wait(5.0)
            rows = coordinator.result()
        assert rows[0].retries == 1  # the lost attempt is visible in the report

    def test_exhausted_attempts_abort_loudly(self):
        from repro.benchsuite.dispatch import SweepCoordinator
        from repro.descend.api import encode_frame

        with SweepCoordinator([dict(self.CELL)], max_attempts=1) as coordinator:
            conn, reader = self._connect(coordinator)
            conn.sendall(encode_frame({"op": "next"}))
            assert json.loads(reader.readline())["op"] == "cell"
            reader.close()
            conn.close()
            assert coordinator.wait(5.0)
            with pytest.raises(BenchmarkError, match="reduce/small"):
                coordinator.result()

    @pytest.mark.parametrize(
        "bad_frame",
        [
            {"op": "result", "index": 1},
            {"op": "result", "index": "0"},
            {"op": "next"},
        ],
        ids=["other-index", "non-integer-index", "next-while-holding"],
    )
    def test_frame_breaking_the_held_cell_drops_the_worker(self, bad_frame):
        """A connection holds one cell: a result under any other index, or a
        second `next`, is refused — the connection drops, nothing is merged,
        and the held cell is requeued as a failed attempt instead of being
        stranded (which would leave the sweep waiting forever)."""
        from repro.benchsuite.dispatch import SweepCoordinator
        from repro.descend.api import encode_frame

        cells = [dict(self.CELL), dict(self.CELL, index=1, benchmark="scan")]
        with SweepCoordinator(cells, max_attempts=3) as coordinator:
            conn, reader = self._connect(coordinator, host="confused-worker:1")
            with conn, reader:
                conn.sendall(encode_frame({"op": "next"}))
                assert json.loads(reader.readline())["cell"]["index"] == 0
                payload = {"row": dict(self.ROW), "error": None, "passes": {}}
                if bad_frame["op"] == "next":
                    payload = {}
                conn.sendall(encode_frame({**payload, **bad_frame}))
                assert reader.readline() == b""  # the coordinator hung up

            served = {}
            conn, reader = self._connect(coordinator, host="healthy-worker:2")
            with conn, reader:
                for _ in range(50):
                    conn.sendall(encode_frame({"op": "next"}))
                    reply = json.loads(reader.readline())
                    if reply["op"] == "done":
                        break
                    if reply["op"] == "wait":
                        time.sleep(0.05)
                        continue
                    cell = reply["cell"]
                    served[cell["index"]] = reply["epoch"]
                    row = dict(self.ROW, benchmark=cell["benchmark"], host="healthy-worker:2")
                    conn.sendall(encode_frame({
                        "op": "result", "index": cell["index"], "row": row,
                        "error": None, "passes": {}, "host": "healthy-worker:2",
                    }))
            # Cell 0 came back one epoch on; cell 1 was never filed.
            assert served == {0: 1, 1: 0}
            assert coordinator.wait(5.0)
            rows = coordinator.result()
        assert [(row.benchmark, row.retries, row.host) for row in rows] == [
            ("reduce", 1, "healthy-worker:2"), ("scan", 0, "healthy-worker:2"),
        ]

    def test_worker_reported_error_counts_as_an_attempt(self):
        from repro.benchsuite.dispatch import SweepCoordinator
        from repro.descend.api import encode_frame

        with SweepCoordinator([dict(self.CELL)], max_attempts=1) as coordinator:
            conn, reader = self._connect(coordinator)
            with conn:
                conn.sendall(encode_frame({"op": "next"}))
                assert json.loads(reader.readline())["op"] == "cell"
                conn.sendall(encode_frame({
                    "op": "result", "index": 0, "row": None,
                    "error": "boom", "passes": {}, "host": "fake-worker:1",
                }))
                assert coordinator.wait(5.0)
            with pytest.raises(BenchmarkError, match="boom"):
                coordinator.result()


class TestSweepScalingBench:
    def test_speedup_is_warm_wall_ratio(self):
        from repro.benchsuite.sweepbench import SweepBenchResult, SweepPhaseRow

        result = SweepBenchResult(rows=[
            SweepPhaseRow("cold", 1, 12, 30.0, 1, {"lower.plan": {"compute": 6}}),
            SweepPhaseRow("warm x1", 1, 12, 20.0, 1, {}),
            SweepPhaseRow("warm x2", 2, 12, 11.0, 2, {}),
            SweepPhaseRow("warm x4", 4, 12, 8.0, 4, {}),
        ])
        assert result.speedup_4w == pytest.approx(2.5)
        payload = result.as_dict()
        assert payload["kind"] == "sweep-scaling-bench"
        assert payload["warm_compute_passes"] == 0
        assert payload["phases"][0]["compute_passes"] == 6
        assert "2.50x" in result.to_table()

    def test_speedup_absent_without_both_rungs(self):
        from repro.benchsuite.sweepbench import SweepBenchResult, SweepPhaseRow

        result = SweepBenchResult(rows=[SweepPhaseRow("warm x1", 1, 6, 10.0, 1, {})])
        assert result.speedup_4w is None
