"""Tests for the persistent content-addressed artifact store.

Covers the tentpole guarantees of `repro.descend.store`:

* a second session against a warm store runs **zero** compute passes and
  reproduces every artifact byte-for-byte (CUDA, pretty-print, diagnostics);
* robustness: corrupted/truncated blobs and indexes degrade to cold
  compiles, never crashes; concurrent writers keep the index intact;
  a schema bump (compiler change) invalidates the whole store;
* LRU size-bounded eviction and the `descendc cache` management commands.
"""

import contextlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.descend.driver import CompilerDriver, CompileSession
from repro.descend.store import STORE_FORMAT, ArtifactStore, pipeline_fingerprint
from repro.descend_programs import reduce as d_reduce
from repro.errors import DescendTypeError

DOUBLER = """
fn doubler(vec: &uniq gpu.global [f64; 64]) -[grid: gpu.grid<X<2>, X<32>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            vec.group::<32>[[block]][[thread]] =
                vec.group::<32>[[block]][[thread]] * 2.0
        }
    }
}
"""

# Every thread writes the same element: rejected by the narrowing check.
RACY = """
fn racy(vec: &uniq gpu.global [f64; 64]) -[grid: gpu.grid<X<2>, X<32>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            vec[0] = 1.0
        }
    }
}
"""


def _warm_session(store_root) -> CompileSession:
    """A fresh session + store handle, as a new process would build them."""
    return CompileSession(label="test").attach_store(ArtifactStore(store_root))


def _compile_everything(session: CompileSession):
    """One full pipeline over the doubler: parse, typeck, all lowerings."""
    from repro.descend.plan import disassemble

    compiled = CompilerDriver(session).compile_source(DOUBLER, name="doubler.descend")
    cuda = compiled.to_cuda().full_source()
    printed = compiled.to_source()
    plan, reason = compiled.device_plan("doubler")
    src, _src_reason = compiled.plan_source("doubler")
    assert src is not None
    return compiled, cuda, printed, (disassemble(plan) if plan is not None else None, reason)


class TestWarmStore:
    def test_second_session_runs_zero_compute_passes(self, tmp_path):
        _compile_everything(_warm_session(tmp_path / "store"))

        warm = _warm_session(tmp_path / "store")
        _, _, _, _ = _compile_everything(warm)
        assert warm.misses == 0
        assert [t.tier for t in warm.timings] == ["store"] * len(warm.timings)
        assert all(t.cached for t in warm.timings)

    def test_artifacts_byte_identical_cold_vs_warm(self, tmp_path):
        _, cold_cuda, cold_printed, cold_plan = _compile_everything(
            _warm_session(tmp_path / "store")
        )
        _, warm_cuda, warm_printed, warm_plan = _compile_everything(
            _warm_session(tmp_path / "store")
        )
        assert warm_cuda == cold_cuda
        assert warm_printed == cold_printed
        assert warm_plan == cold_plan

    def test_builder_programs_warm_across_sessions(self, tmp_path):
        program = d_reduce.build_reduce_program(n=256, block_size=64)
        cold = _warm_session(tmp_path / "store")
        CompilerDriver(cold).compile_program(program).device_plan("block_reduce")

        warm = _warm_session(tmp_path / "store")
        compiled = CompilerDriver(warm).compile_program(
            d_reduce.build_reduce_program(n=256, block_size=64)
        )
        plan, reason = compiled.device_plan("block_reduce")
        assert warm.misses == 0
        assert plan is not None and reason is None
        # Plans are data-driven IR: the warm session deserialized the
        # finished plan from the store — no re-lowering, no opt passes.
        assert warm.plan_compiles == 0
        plan_timings = [t for t in warm.timings if t.name.startswith("lower.plan")]
        assert [t.name for t in plan_timings] == ["lower.plan"]
        assert plan_timings[0].tier == "store"

    def test_failures_warm_with_identical_diagnostics(self, tmp_path):
        def diagnose(session):
            with pytest.raises(DescendTypeError) as excinfo:
                CompilerDriver(session).compile_source(RACY, name="racy.descend")
            diagnostic = excinfo.value.diagnostic
            return diagnostic.render(None) if diagnostic is not None else str(excinfo.value)

        cold_rendered = diagnose(_warm_session(tmp_path / "store"))
        warm = _warm_session(tmp_path / "store")
        warm_rendered = diagnose(warm)
        assert warm_rendered == cold_rendered
        assert warm.misses == 0
        assert warm.timings[0].tier == "store"
        # Failed units are reported under their own artifact kind.
        assert set(warm.store.stats()["kinds"]) == {"failure"}

    def test_store_stats_reported_through_session(self, tmp_path):
        session = _warm_session(tmp_path / "store")
        _compile_everything(session)
        stats = session.stats()["store"]
        assert stats["entries"] > 0
        assert stats["writes"] > 0
        assert set(stats["kinds"]) == {"program", "cuda", "print", "plan", "plan-src"}
        # The per-kind breakdown reports blob counts and byte totals.
        for bucket in stats["kinds"].values():
            assert bucket["count"] > 0
            assert bucket["bytes"] > 0
        assert "store hits" in session.timings_table()


class TestRobustness:
    def _blobs(self, root):
        return sorted(p for p in (root / "objects").rglob("*") if p.is_file())

    def test_corrupted_blobs_fall_back_to_cold_compile(self, tmp_path):
        root = tmp_path / "store"
        _, cold_cuda, _, _ = _compile_everything(_warm_session(root))
        for blob in self._blobs(root):
            blob.write_bytes(b"\x80\x04garbage not a pickle")

        warm = _warm_session(root)
        _, cuda, _, _ = _compile_everything(warm)
        assert cuda == cold_cuda
        assert warm.misses > 0  # cold compile, not a crash
        assert warm.store.errors > 0

    def test_truncated_blobs_fall_back_to_cold_compile(self, tmp_path):
        root = tmp_path / "store"
        _compile_everything(_warm_session(root))
        for blob in self._blobs(root):
            blob.write_bytes(blob.read_bytes()[: max(1, blob.stat().st_size // 3)])

        warm = _warm_session(root)
        compiled, _, _, _ = _compile_everything(warm)
        assert compiled.checked is not None
        # The poisoned blobs are healed: a third session is fully warm again.
        healed = _warm_session(root)
        _compile_everything(healed)
        assert healed.misses == 0

    def test_corrupt_index_is_rebuilt_from_blobs(self, tmp_path):
        root = tmp_path / "store"
        _compile_everything(_warm_session(root))
        (root / "index.json").write_text("{ not json !!!")

        warm = _warm_session(root)
        _compile_everything(warm)
        assert warm.misses == 0  # blobs are authoritative; entries recovered
        entries = json.loads((root / "index.json").read_text())["entries"]
        assert len(entries) == len(self._blobs(root))

    def test_hostile_envelope_shape_is_ignored(self, tmp_path):
        root = tmp_path / "store"
        session = _warm_session(root)
        driver = CompilerDriver(session)
        driver.compile_source(DOUBLER, name="doubler.descend")
        digest = session.artifact_digest(
            "unit", session.source_key(DOUBLER, "doubler.descend")
        )
        path = session.store._object_path(digest)
        path.write_bytes(pickle.dumps(("ok", "not a CompiledProgram"), protocol=4))

        warm = _warm_session(root)
        compiled = CompilerDriver(warm).compile_source(DOUBLER, name="doubler.descend")
        assert compiled.checked is not None  # wrong-shape envelope → cold compile

    @pytest.mark.parametrize(
        "kind, extra, wrong, recomputed",
        [
            ("unit", "", ("ok", "not a CompiledProgram"), ["parse", "typeck"]),
            ("plan", "doubler", ("ok", "not a DevicePlan"), ["lower.plan", "lower.plan.opt"]),
            ("plan-src", "doubler", ("ok", "not a PlanSource"), ["lower.plan.codegen"]),
            ("cuda", "None", "not a CUDA module", ["lower.cuda"]),
            ("print", "", b"not printed source", ["lower.print"]),
        ],
    )
    def test_wrong_shape_artifact_degrades_to_one_cold_compute(
        self, tmp_path, kind, extra, wrong, recomputed
    ):
        """A well-formed pickle of the wrong type is recomputed once, then healed."""

        def artifacts(session):
            compiled, cuda, printed, plan = _compile_everything(session)
            source = compiled.plan_source("doubler")[0].source
            return compiled.function_names, cuda, printed, plan, source

        root = tmp_path / "store"
        cold = artifacts(_warm_session(root))
        session = _warm_session(root)
        digest = session.artifact_digest(
            kind, session.source_key(DOUBLER, "doubler.descend"), extra=extra
        )
        session.store._object_path(digest).write_bytes(pickle.dumps(wrong, protocol=4))

        warm = _warm_session(root)
        assert artifacts(warm) == cold
        assert [t.name for t in warm.timings if t.tier == "compute"] == recomputed
        # The recomputed artifact was written back over the wrong one.
        healed = _warm_session(root)
        assert artifacts(healed) == cold
        assert healed.misses == 0

    def test_schema_bump_invalidates_cleanly(self, tmp_path):
        root = tmp_path / "store"
        old = ArtifactStore(root, schema="compiler-v1")
        old.store("ab" * 32, {"payload": 1})
        assert ArtifactStore(root, schema="compiler-v1").load("ab" * 32) is not None

        bumped = ArtifactStore(root, schema="compiler-v2")
        assert bumped.load("ab" * 32) is None
        assert bumped.stats()["entries"] == 0
        meta = json.loads((root / "schema.json").read_text())
        assert meta == {"format": STORE_FORMAT, "schema": "compiler-v2"}

    def test_default_schema_is_the_pipeline_fingerprint(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert store.schema == pipeline_fingerprint()
        assert len(store.schema) == 64

    def test_concurrent_writers_keep_the_index_intact(self, tmp_path):
        root = tmp_path / "store"
        script = (
            "import sys\n"
            "from repro.descend.driver import CompilerDriver, CompileSession\n"
            "from repro.descend.store import ArtifactStore\n"
            "from repro.descend_programs.vector import build_scale_program\n"
            "root, start = sys.argv[1], int(sys.argv[2])\n"
            "session = CompileSession().attach_store(ArtifactStore(root))\n"
            "driver = CompilerDriver(session)\n"
            "for n in range(start, start + 4):\n"
            "    compiled = driver.compile_program(\n"
            "        build_scale_program(n=32 * (n + 1), block_size=32))\n"
            "    compiled.to_cuda()\n"
        )
        src_dir = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(root), str(start)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=env,
            )
            for start in (0, 2)  # overlapping ranges: some same-key writes
        ]
        for worker in workers:
            _, stderr = worker.communicate(timeout=120)
            assert worker.returncode == 0, stderr.decode()

        store = ArtifactStore(root)
        entries = json.loads((root / "index.json").read_text())["entries"]
        # 6 distinct programs (ranges 0..3 and 2..5 overlap on 2) × 2 kinds.
        assert len(entries) == 12
        assert store.stats()["total_bytes"] > 0
        for digest in entries:
            assert store.load(digest) is not None


class TestEviction:
    def test_lru_eviction_respects_recency(self, tmp_path):
        store = ArtifactStore(tmp_path / "store", max_bytes=1)  # evict on every write
        store.store("aa" * 32, b"x" * 100)
        store.store("bb" * 32, b"y" * 100)
        assert store.load("aa" * 32) is None
        assert store.load("bb" * 32) is not None
        assert store.evictions == 1

    def test_gc_enforces_budget_and_reconciles(self, tmp_path):
        root = tmp_path / "store"
        store = ArtifactStore(root)
        for index in range(4):
            store.store(f"{index:02d}" * 32, b"z" * 1000)
        store.load("00" * 32)  # refresh: 00 becomes most recently used
        # Orphan blob (bypassing the index) and a dangling entry (blob gone).
        orphan = root / "objects" / "ff" / ("ff" * 32)
        orphan.parent.mkdir(parents=True, exist_ok=True)
        orphan.write_bytes(pickle.dumps("orphan"))
        (root / "objects" / "01" / ("01" * 32)).unlink()

        summary = store.gc()
        assert summary["entries"] == 4  # 4 stored - 1 dangling + 1 orphan
        shrunk = store.gc(max_bytes=2200)
        assert shrunk["total_bytes"] <= 2200
        assert store.load("00" * 32) is not None  # most recent survives

    def test_stray_tmp_files_never_become_entries(self, tmp_path):
        root = tmp_path / "store"
        store = ArtifactStore(root)
        store.store("aa" * 32, {"x": 1})
        # Foreign junk inside objects/ and a staging file from a writer
        # killed between mkstemp and rename.
        stray = root / "objects" / "aa" / ".junk"
        stray.write_bytes(b"partial")
        stale_tmp = root / "tmp" / ".tmp-killed"
        stale_tmp.write_bytes(b"partial")
        os.utime(stale_tmp, (0, 0))  # long dead
        live_tmp = root / "tmp" / ".tmp-in-flight"
        live_tmp.write_bytes(b"being written right now")
        (root / "index.json").unlink()  # force a rebuild from the blobs

        summary = store.gc()
        assert summary["entries"] == 1  # neither stray was adopted ...
        assert not stray.exists() and not stale_tmp.exists()  # ... dead ones removed
        assert live_tmp.exists()  # a concurrent writer's tmp file survives gc
        assert store.load("aa" * 32) is not None

    def test_gc_ages_out_quarantined_blobs(self, tmp_path):
        root = tmp_path / "store"
        store = ArtifactStore(root)
        digest = "aa" * 32
        store.store(digest, {"x": 1})
        (root / "objects" / "aa" / digest).write_bytes(b"garbage not a pickle")
        assert store.load(digest) is None  # poisoned: moved aside, not deleted
        assert store.quarantine_entries() == 1
        store.gc()
        assert store.quarantine_entries() == 1  # fresh evidence survives gc
        os.utime(root / "quarantine" / digest, (0, 0))  # long dead
        store.gc()
        assert store.quarantine_entries() == 0

    def test_gc_racing_a_concurrent_writer_loses_nothing(self, tmp_path):
        """`cache gc` in one process while another is writing: every write
        the writer completed must still load afterwards (gc only reconciles,
        it never deletes a live indexed blob or a racing writer's tmp file)."""
        root = tmp_path / "store"
        script = (
            "import sys\n"
            "from repro.descend.store import ArtifactStore\n"
            "store = ArtifactStore(sys.argv[1])\n"
            "for n in range(40):\n"
            "    assert store.store(('%02x' % n) * 32, {'n': n, 'pad': 'x' * 512})\n"
        )
        src_dir = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        gc_store = ArtifactStore(root)  # same schema: no wipe on open
        writer = subprocess.Popen(
            [sys.executable, "-c", script, str(root)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        try:
            while writer.poll() is None:
                gc_store.gc()
        finally:
            _, stderr = writer.communicate(timeout=120)
        assert writer.returncode == 0, stderr.decode()

        summary = gc_store.gc()  # one final reconcile after the writer exits
        assert summary["entries"] == 40
        fresh = ArtifactStore(root)
        for n in range(40):
            assert fresh.load(("%02x" % n) * 32) == {"n": n, "pad": "x" * 512}

    def test_wrong_top_level_json_types_degrade_not_raise(self, tmp_path):
        root = tmp_path / "store"
        store = ArtifactStore(root)
        store.store("aa" * 32, {"x": 1})
        (root / "index.json").write_text("[1, 2]")  # valid JSON, wrong type
        fresh = ArtifactStore(root)
        assert fresh.load("aa" * 32) is not None  # rebuilt from blobs

        (root / "schema.json").write_text('"not an object"')
        reopened = ArtifactStore(root)  # self-invalidates instead of crashing
        assert reopened.stats()["entries"] == 0

    def test_wrong_typed_index_fields_degrade_not_raise(self, tmp_path):
        root = tmp_path / "store"
        store = ArtifactStore(root)
        store.store("aa" * 32, {"x": 1})
        index = json.loads((root / "index.json").read_text())
        index["entries"]["aa" * 32]["used"] = "yesterday"  # hand-edited junk
        index["entries"]["aa" * 32]["size"] = "big"
        (root / "index.json").write_text(json.dumps(index))

        fresh = ArtifactStore(root)
        assert fresh.load("aa" * 32) is not None  # no ValueError anywhere
        assert fresh.store("bb" * 32, {"y": 2})  # eviction math survives too
        assert fresh.gc()["entries"] == 2

    def test_clear_empties_the_store(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.store("aa" * 32, {"x": 1})
        store.clear()
        assert store.stats()["entries"] == 0
        assert store.load("aa" * 32) is None


class TestCacheCli:
    def test_cache_requires_a_store_path(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert cli_main(["cache", "stats"]) == 2
        assert "REPRO_STORE" in capsys.readouterr().err

    def test_cache_stats_clear_gc(self, tmp_path, capsys):
        store_arg = ["--store", str(tmp_path / "store")]
        good = tmp_path / "good.descend"
        good.write_text(DOUBLER)
        assert cli_main(["check", str(good), *store_arg]) == 0
        capsys.readouterr()

        assert cli_main(["cache", "stats", "--json", *store_arg]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] > 0 and stats["format"] == STORE_FORMAT

        assert cli_main(["cache", "gc", "--json", *store_arg]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == stats["entries"]

        assert cli_main(["cache", "clear", *store_arg]) == 0
        assert "cleared" in capsys.readouterr().out
        assert cli_main(["cache", "stats", "--json", *store_arg]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_cache_stats_breaks_down_by_kind(self, tmp_path, capsys):
        store_arg = ["--store", str(tmp_path / "store")]
        good = tmp_path / "good.descend"
        good.write_text(DOUBLER)
        # `plan` compiles everything the pipeline produces for a GPU
        # function: program unit, device plan (and, via stats, their blobs);
        # `--jit` additionally persists the generated source as `plan-src`.
        assert cli_main(["plan", str(good), *store_arg]) == 0
        assert cli_main(["plan", str(good), "--jit", *store_arg]) == 0
        capsys.readouterr()

        assert cli_main(["cache", "stats", *store_arg]) == 0
        out = capsys.readouterr().out
        for kind in ("program", "plan", "plan-src"):
            assert any(
                line.strip().startswith(kind) and "blobs" in line and "bytes" in line
                for line in out.splitlines()
            ), out

        assert cli_main(["cache", "stats", "--json", *store_arg]) == 0
        kinds = json.loads(capsys.readouterr().out)["kinds"]
        assert kinds["plan"]["count"] == 1
        assert kinds["plan"]["bytes"] > 0
        assert kinds["plan-src"]["count"] == 1
        assert kinds["plan-src"]["bytes"] > 0

    def test_unusable_store_path_is_a_clean_error(self, tmp_path, capsys):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("occupied")
        good = tmp_path / "good.descend"
        good.write_text(DOUBLER)
        assert cli_main(["check", str(good), "--store", str(not_a_dir)]) == 2
        assert "cannot open artifact store" in capsys.readouterr().err
        assert cli_main(["cache", "stats", "--store", str(not_a_dir)]) == 2
        assert "cannot open artifact store" in capsys.readouterr().err

    def test_cli_store_env_var(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env-store"))
        good = tmp_path / "good.descend"
        good.write_text(DOUBLER)
        assert cli_main(["check", str(good)]) == 0
        capsys.readouterr()
        assert cli_main(["cache", "stats", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] > 0

    def test_warm_cli_invocation_reports_zero_misses(self, tmp_path, capsys):
        store_arg = ["--store", str(tmp_path / "store")]
        good = tmp_path / "warm.descend"
        good.write_text(DOUBLER)
        out_cold = tmp_path / "cold.cu"
        out_warm = tmp_path / "warm.cu"
        assert cli_main(["compile", str(good), "-o", str(out_cold), *store_arg]) == 0
        capsys.readouterr()

        # Fresh session, as a second OS process would have: zero compile
        # passes, byte-identical CUDA (the ISSUE acceptance criterion).
        from repro import cli as cli_module
        from repro.descend.api import LocalBackend

        fresh = CompileSession(label="cli")
        cli_module._BACKEND = LocalBackend(session=fresh)
        assert cli_main(
            ["compile", str(good), "-o", str(out_warm), "--timings", *store_arg]
        ) == 0
        err = capsys.readouterr().err
        assert "misses 0" in err
        assert "store hits" in err
        assert out_warm.read_bytes() == out_cold.read_bytes()

    def test_warm_cli_compile_skips_the_code_generator(self, tmp_path):
        """Unpickling the stored CUDA module imports no part of the generator."""
        repo = Path(__file__).resolve().parent.parent
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            "status = main(sys.argv[1:])\n"
            "print('modules:', *sorted(m for m in sys.modules if m.startswith('repro.descend.codegen')))\n"
            "sys.exit(status)\n"
        )
        env = dict(os.environ)
        env.pop("REPRO_STORE", None)
        env["PYTHONPATH"] = str(repo / "src") + os.pathsep + env.get("PYTHONPATH", "")
        loaded = []
        for run in ("cold", "warm"):
            proc = subprocess.run(
                [sys.executable, "-c", script, "compile", str(repo / "examples" / "scale_vec.descend"),
                 "--store", str(tmp_path / "store"), "-o", str(tmp_path / f"{run}.cu")],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            loaded.append(proc.stdout.splitlines()[-1].split()[1:])
        cold, warm = loaded
        assert "repro.descend.codegen.kernel_gen" in cold
        assert warm == []
        assert (tmp_path / "warm.cu").read_bytes() == (tmp_path / "cold.cu").read_bytes()


class TestUnsupportedPlanPersistence:
    def test_fallback_reason_persists_without_relowering(self, tmp_path):
        from repro.descend.builder import (
            F64,
            GPU_GLOBAL,
            array,
            assign,
            block,
            body,
            dim_x,
            fun,
            gpu_grid_spec,
            if_,
            lit_bool,
            param,
            program,
            read,
            sched,
            sync,
            uniq_ref,
            var,
        )

        elem = var("vec").view("group", 32).select("block").select("thread")
        kernel_def = fun(
            "guarded_sync",
            [param("vec", uniq_ref(GPU_GLOBAL, array(F64, 64)))],
            gpu_grid_spec("grid", dim_x(2), dim_x(32)),
            body(
                sched(
                    "X",
                    "block",
                    "grid",
                    sched(
                        "X",
                        "thread",
                        "block",
                        if_(lit_bool(True), block(sync())),
                        assign(elem, read(elem)),
                    ),
                )
            ),
        )
        cold = _warm_session(tmp_path / "store")
        plan, reason = (
            CompilerDriver(cold).compile_program(program(kernel_def)).device_plan("guarded_sync")
        )
        assert plan is None and reason

        warm = _warm_session(tmp_path / "store")
        warm_plan, warm_reason = (
            CompilerDriver(warm).compile_program(program(kernel_def)).device_plan("guarded_sync")
        )
        assert warm_plan is None
        assert warm_reason == reason
        assert warm.plan_compiles == 0  # the reason came straight from the store
        assert warm.misses == 0


class TestPlanPersistence:
    """Plans are first-class store artifacts: deserialized, never re-lowered."""

    def test_warm_plan_launches_with_identical_cycles(self, tmp_path):
        import numpy as np

        data = np.arange(64, dtype=np.float64)

        def launch(session):
            from repro.gpusim import GpuDevice

            compiled = CompilerDriver(session).compile_source(DOUBLER, name="doubler.descend")
            device = GpuDevice(execution_mode="vectorized")
            buf = device.to_device(data)
            launch = compiled.kernel("doubler").launch(device, {"vec": buf})
            assert launch.execution_mode == "vectorized"
            return launch.cycles, device.to_host(buf).copy()

        cold_cycles, cold_result = launch(_warm_session(tmp_path / "store"))
        warm = _warm_session(tmp_path / "store")
        warm_cycles, warm_result = launch(warm)
        assert warm_cycles == cold_cycles
        assert np.array_equal(warm_result, cold_result)
        # The warm launch ran zero lowering or optimization passes.
        assert warm.plan_compiles == 0
        assert warm.misses == 0
        assert all(t.name != "lower.plan.opt" for t in warm.timings)

    def test_corrupt_plan_artifact_degrades_to_relowering(self, tmp_path):
        session = _warm_session(tmp_path / "store")
        driver = CompilerDriver(session)
        compiled = driver.compile_source(DOUBLER, name="doubler.descend")
        compiled.device_plan("doubler")
        digest = session.artifact_digest(
            "plan", session.source_key(DOUBLER, "doubler.descend"), extra="doubler"
        )
        path = session.store._object_path(digest)
        path.write_bytes(pickle.dumps(("ok", "not a DevicePlan"), protocol=4))

        warm = _warm_session(tmp_path / "store")
        plan, reason = (
            CompilerDriver(warm)
            .compile_source(DOUBLER, name="doubler.descend")
            .device_plan("doubler")
        )
        assert plan is not None and reason is None  # cold re-lowering, not a crash
        assert warm.plan_compiles == 1


class TestPlanSourcePersistence:
    """Generated jit source is a first-class `plan-src` store artifact."""

    def test_warm_jit_launch_runs_zero_codegen_passes(self, tmp_path):
        import numpy as np

        data = np.arange(64, dtype=np.float64)

        def launch(session):
            from repro.gpusim import GpuDevice

            compiled = CompilerDriver(session).compile_source(DOUBLER, name="doubler.descend")
            device = GpuDevice(execution_mode="jit")
            buf = device.to_device(data)
            launch = compiled.kernel("doubler").launch(device, {"vec": buf})
            assert launch.execution_mode == "jit"
            return launch.cycles, device.to_host(buf).copy()

        cold_cycles, cold_result = launch(_warm_session(tmp_path / "store"))
        warm = _warm_session(tmp_path / "store")
        warm_cycles, warm_result = launch(warm)
        assert warm_cycles == cold_cycles
        assert np.array_equal(warm_result, cold_result)
        # The warm launch deserialized the generated source from the store:
        # zero codegen (and zero lowering) compute passes.
        assert warm.plan_source_compiles == 0
        assert warm.plan_compiles == 0
        assert warm.misses == 0
        codegen_timings = [t for t in warm.timings if t.name == "lower.plan.codegen"]
        assert codegen_timings and all(t.tier == "store" for t in codegen_timings)

    def test_corrupt_plan_source_artifact_degrades_to_recompiling(self, tmp_path):
        session = _warm_session(tmp_path / "store")
        compiled = CompilerDriver(session).compile_source(DOUBLER, name="doubler.descend")
        src, reason = compiled.plan_source("doubler")
        assert src is not None and reason is None
        digest = session.artifact_digest(
            "plan-src", session.source_key(DOUBLER, "doubler.descend"), extra="doubler"
        )
        path = session.store._object_path(digest)
        path.write_bytes(pickle.dumps(("ok", "not a PlanSource"), protocol=4))

        warm = _warm_session(tmp_path / "store")
        warm_src, warm_reason = (
            CompilerDriver(warm)
            .compile_source(DOUBLER, name="doubler.descend")
            .plan_source("doubler")
        )
        assert warm_src is not None and warm_reason is None
        assert warm_src.source == src.source  # regenerated, byte-identical
        assert warm.plan_source_compiles == 1

    def test_plan_unsupported_fallback_reason_persists(self, tmp_path):
        """A lowering refusal is stored as plan-src too: warm sessions skip it."""
        from repro.descend.plan.lower import MAX_NESTING

        # Two scheds plus MAX_NESTING - 1 ifs: one level past the bound.
        elem = "vec.group::<32>[[block]][[thread]]"
        stmt = f"{elem} = {elem} * 2.0"
        for _ in range(MAX_NESTING - 1):
            stmt = f"if {elem} < 60.0 {{ {stmt} }}"
        deep = (
            "fn deep(vec: &uniq gpu.global [f64; 64]) -[grid: gpu.grid<X<2>, X<32>>]-> () {\n"
            f"    sched(X) block in grid {{ sched(X) thread in block {{ {stmt} }} }}\n"
            "}\n"
        )
        cold = _warm_session(tmp_path / "store")
        src, reason = (
            CompilerDriver(cold).compile_source(deep, name="deep.descend").plan_source("deep")
        )
        assert src is None and "nest deeper" in reason
        assert cold.plan_source_compiles == 1

        warm = _warm_session(tmp_path / "store")
        warm_src, warm_reason = (
            CompilerDriver(warm).compile_source(deep, name="deep.descend").plan_source("deep")
        )
        assert warm_src is None
        assert warm_reason == reason
        assert warm.plan_source_compiles == 0

    def test_gc_evicts_plan_source_under_lru(self, tmp_path):
        session = _warm_session(tmp_path / "store")
        compiled = CompilerDriver(session).compile_source(DOUBLER, name="doubler.descend")
        src, reason = compiled.plan_source("doubler")
        assert src is not None and reason is None
        assert "plan-src" in session.store.stats()["kinds"]

        shrunk = session.store.gc(max_bytes=0)
        assert shrunk["entries"] == 0  # plan-src evicts like any artifact

        warm = _warm_session(tmp_path / "store")
        warm_src, _ = (
            CompilerDriver(warm)
            .compile_source(DOUBLER, name="doubler.descend")
            .plan_source("doubler")
        )
        assert warm_src is not None
        assert warm.plan_source_compiles == 1  # recomputed after eviction


class TestFuzzReproKind:
    """The `fuzz-repro` artifact kind: listing, stats breakdown, gc."""

    def _persist_repros(self, store, count=3):
        from repro.fuzz.corpus import persist_repro

        digests = []
        for index in range(count):
            digests.append(
                persist_repro(
                    store,
                    {
                        "seed": 11,
                        "index": index,
                        "property": "engine-parity",
                        "mutation": "",
                        "source": f"fn fuzzed_{index}() {{}}",
                        "detail": "synthetic",
                    },
                )
            )
        return digests

    def test_digests_lists_and_filters_by_kind(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        repro_digests = self._persist_repros(store, count=2)
        store.store("aa" * 32, {"x": 1}, kind="program")
        assert store.digests() == tuple(sorted(repro_digests + ["aa" * 32]))
        assert store.digests(kind="fuzz-repro") == tuple(sorted(repro_digests))
        assert store.digests(kind="program") == ("aa" * 32,)
        assert store.digests(kind="nope") == ()

    def test_persisting_the_same_repro_is_idempotent(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        first = self._persist_repros(store, count=2)
        second = self._persist_repros(store, count=2)
        assert first == second  # content-derived digests: same repro, same blob
        assert store.stats()["kinds"]["fuzz-repro"]["count"] == 2

    def test_stats_break_down_the_fuzz_repro_kind(self, tmp_path, capsys):
        store_root = tmp_path / "store"
        self._persist_repros(ArtifactStore(store_root), count=3)
        assert cli_main(["cache", "stats", "--json", "--store", str(store_root)]) == 0
        kinds = json.loads(capsys.readouterr().out)["kinds"]
        assert kinds["fuzz-repro"]["count"] == 3
        assert kinds["fuzz-repro"]["bytes"] > 0
        assert cli_main(["cache", "stats", "--store", str(store_root)]) == 0
        out = capsys.readouterr().out
        assert any(
            line.strip().startswith("fuzz-repro") and "blobs" in line
            for line in out.splitlines()
        ), out

    def test_gc_evicts_fuzz_repros_under_lru(self, tmp_path):
        from repro.fuzz.corpus import load_repros

        store = ArtifactStore(tmp_path / "store")
        self._persist_repros(store, count=3)
        assert len(load_repros(store)) == 3
        store.gc(max_bytes=0)
        assert load_repros(store) == []  # fuzz-repros evict like any artifact
        assert store.digests(kind="fuzz-repro") == ()


@contextlib.contextmanager
def _http_store(tmp_path, label="store-http"):
    """A live `descendc serve --store-http` endpoint; yields its URL."""
    from repro.descend.api import LocalBackend
    from repro.descend.serve import ServeConfig, ServerThread

    config = ServeConfig(
        str(tmp_path / "serve.sock"),
        store_path=str(tmp_path / "remote-store"),
        store_http_port=0,
    )
    with ServerThread(LocalBackend(label=label), config) as thread:
        yield thread.store_url


class TestStoreBackends:
    """The pluggable backend seam: rev-guarded index swaps on both sides."""

    def test_location_dispatch(self, tmp_path):
        from repro.descend.store.backend import (
            HttpBackend,
            LocalDirBackend,
            backend_for,
            is_store_url,
        )

        assert not is_store_url(tmp_path / "store")
        assert is_store_url("http://127.0.0.1:8080")
        assert is_store_url("https://cache.example/v1")
        assert isinstance(backend_for(tmp_path / "store", schema="s"), LocalDirBackend)
        assert isinstance(backend_for("http://127.0.0.1:1", schema="s"), HttpBackend)
        with pytest.raises(OSError, match="not a store URL"):
            HttpBackend("http://", schema="s")

    def test_local_dir_index_swap_is_rev_guarded(self, tmp_path):
        from repro.descend.store.backend import backend_for

        backend = backend_for(tmp_path / "store", schema="s1")
        backend.ensure_ready()
        rev, entries = backend.index_read()
        assert not entries  # fresh store: no entry table yet
        table = {"aa" * 32: {"size": 1, "kind": "plan", "used": 0.0}}
        assert backend.index_swap(rev, table)
        new_rev, read_back = backend.index_read()
        assert new_rev == rev + 1
        assert read_back == table
        # A stale rev loses the swap instead of clobbering the winner.
        assert not backend.index_swap(rev, {})
        _, still = backend.index_read()
        assert still == table

    def test_http_index_swap_conflicts_like_local(self, tmp_path):
        from repro.descend.store.backend import backend_for

        with _http_store(tmp_path) as url:
            backend = backend_for(url, schema=pipeline_fingerprint())
            backend.ensure_ready()
            rev, _ = backend.index_read()
            table = {"bb" * 32: {"size": 2, "kind": "plan", "used": 0.0}}
            assert backend.index_swap(rev, table)
            assert not backend.index_swap(rev, {})  # 409 from the endpoint
            new_rev, entries = backend.index_read()
            assert new_rev == rev + 1
            assert entries == table


class TestHttpStore:
    """`ArtifactStore` over the daemon's HTTP endpoint behaves like local."""

    def test_round_trip_and_stats(self, tmp_path):
        with _http_store(tmp_path) as url:
            store = ArtifactStore(url)
            assert store.store("aa" * 32, {"x": 1}, kind="plan")
            assert store.load("aa" * 32) == {"x": 1}
            assert store.digests(kind="plan") == ("aa" * 32,)
            stats = store.stats()
            assert stats["backend"] == "http"
            assert stats["root"] == url
            assert stats["entries"] == 1
            assert stats["kinds"]["plan"]["count"] == 1

            # A second client (a second process, in effect) sees the blobs.
            assert ArtifactStore(url).load("aa" * 32) == {"x": 1}

    def test_warm_compile_through_the_http_backend(self, tmp_path):
        with _http_store(tmp_path) as url:
            _compile_everything(_warm_session(url))
            warm = _warm_session(url)
            _compile_everything(warm)
            assert warm.misses == 0
            assert all(t.tier == "store" for t in warm.timings)

    def test_schema_mismatch_refuses_without_wiping_remote(self, tmp_path):
        with _http_store(tmp_path) as url:
            assert ArtifactStore(url).store("aa" * 32, {"x": 1})
            with pytest.raises(OSError, match="different compiler build"):
                ArtifactStore(url, schema="some-other-build")
            # The refused attach left the server's data untouched.
            assert ArtifactStore(url).load("aa" * 32) == {"x": 1}

    def test_unreachable_endpoint_is_a_clean_cli_error(self, capsys):
        # Port 1 is never a store; attach must fail loud, not hang or crash.
        assert cli_main(["cache", "stats", "--store", "http://127.0.0.1:1"]) == 2
        assert "cannot open artifact store" in capsys.readouterr().err


class TestQuarantineAge:
    def test_cache_gc_quarantine_age_flag(self, tmp_path, capsys):
        root = tmp_path / "store"
        store = ArtifactStore(root)
        digest = "aa" * 32
        store.store(digest, {"x": 1})
        (root / "objects" / "aa" / digest).write_bytes(b"garbage not a pickle")
        assert store.load(digest) is None  # poisoned: moved aside
        quarantined = root / "quarantine" / digest
        os.utime(quarantined, (0, 0))  # long dead

        store_arg = ["--store", str(root)]
        # A generous threshold keeps the evidence around for debugging...
        assert cli_main(
            ["cache", "gc", "--json", "--quarantine-age", "1e12", *store_arg]
        ) == 0
        capsys.readouterr()
        assert quarantined.exists()
        # ...a tight one ages it out.
        assert cli_main(
            ["cache", "gc", "--json", "--quarantine-age", "60", *store_arg]
        ) == 0
        capsys.readouterr()
        assert not quarantined.exists()


class TestCacheCliJsonShape:
    """`descendc cache stats --json` is a stable machine interface (CI uses
    it to assert warm-store behaviour), on both backends."""

    EXPECTED_KEYS = {
        "root",
        "backend",
        "format",
        "schema",
        "entries",
        "total_bytes",
        "max_bytes",
        "kinds",
        "hits",
        "misses",
        "writes",
        "evictions",
        "errors",
        "quarantined",
        "quarantine_entries",
    }

    def test_local_store_shape(self, tmp_path, capsys):
        root = tmp_path / "store"
        ArtifactStore(root).store("aa" * 32, {"x": 1}, kind="plan")
        assert cli_main(["cache", "stats", "--json", "--store", str(root)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert self.EXPECTED_KEYS <= set(stats)
        assert stats["backend"] == "local-dir"
        assert stats["format"] == STORE_FORMAT
        assert stats["entries"] == 1
        assert stats["total_bytes"] > 0
        assert stats["kinds"] == {"plan": {"count": 1, "bytes": stats["total_bytes"]}}

    def test_url_store_shape_matches_local(self, tmp_path, capsys):
        with _http_store(tmp_path) as url:
            ArtifactStore(url).store("bb" * 32, {"y": 2}, kind="plan")
            assert cli_main(["cache", "stats", "--json", "--store", url]) == 0
            stats = json.loads(capsys.readouterr().out)
            assert self.EXPECTED_KEYS <= set(stats)
            assert stats["backend"] == "http"
            assert stats["root"] == url
            assert stats["entries"] == 1

            # gc works over the wire too, with the same JSON contract.
            assert cli_main(
                ["cache", "gc", "--json", "--quarantine-age", "60", "--store", url]
            ) == 0
            summary = json.loads(capsys.readouterr().out)
            assert summary["entries"] == 1
