"""Tests for the staged compiler driver and its content-addressed session cache."""

import dataclasses

import numpy as np
import pytest

from repro.benchsuite.compilebench import run_compile_bench
from repro.descend.driver import (
    PASS_PARSE,
    PASS_TYPECK,
    CompilerDriver,
    CompileSession,
    active_session,
    session_scope,
)
from repro.descend.store import ArtifactStore
from repro.descend_programs import reduce, vector
from repro.errors import DescendError, DescendSyntaxError, DescendTypeError
from repro.gpusim import GpuDevice

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


class TestSessionCache:
    def test_repeated_source_compile_hits_cache(self):
        session = CompileSession()
        driver = CompilerDriver(session)
        first = driver.compile_source(DOUBLER, name="doubler.descend")
        assert session.stats()["hits"] == 0
        second = driver.compile_source(DOUBLER, name="doubler.descend")
        assert second is first
        assert session.stats()["hits"] == 1

    def test_edited_source_recompiles(self):
        session = CompileSession()
        driver = CompilerDriver(session)
        first = driver.compile_source(DOUBLER, name="doubler.descend")
        edited = DOUBLER.replace("* 2.0", "* 3.0")
        second = driver.compile_source(edited, name="doubler.descend")
        assert second is not first
        assert session.stats()["hits"] == 0
        assert session.stats()["programs"] == 2

    def test_builder_program_cached_across_rebuilds(self):
        session = CompileSession()
        driver = CompilerDriver(session)
        first = driver.compile_program(reduce.build_reduce_program(n=256, block_size=32))
        second = driver.compile_program(reduce.build_reduce_program(n=256, block_size=32))
        assert second is first
        third = driver.compile_program(reduce.build_reduce_program(n=512, block_size=32))
        assert third is not first

    def test_pass_timings_recorded(self):
        session = CompileSession()
        driver = CompilerDriver(session)
        driver.compile_source(DOUBLER, name="doubler.descend")
        names = [t.name for t in session.timings]
        assert names == [PASS_PARSE, PASS_TYPECK]
        assert all(not t.cached for t in session.timings)
        driver.compile_source(DOUBLER, name="doubler.descend")
        assert session.timings[-1].cached

    def test_timings_table_aligns_an_absolute_path_unit(self):
        session = CompileSession()
        unit = "/home/user/checkouts/descend-reproduction/examples/doubler.descend"
        compiled = CompilerDriver(session).compile_source(DOUBLER, name=unit)
        compiled.device_plan("doubler")
        CompilerDriver(session).compile_source(DOUBLER, name="d.descend")
        lines = session.timings_table().splitlines()
        header, rows = lines[0], lines[2:-2]
        pass_at = header.index("pass")
        wall_end = header.index("wall") + len("wall")
        assert len(rows) == len(session.timings) >= 4
        for row in rows:
            assert row[pass_at - 1] == " " and row[pass_at:].split()[0].startswith(
                ("parse", "typeck", "lower")
            )
            assert row[wall_end - 2:wall_end] == "ms"
            assert row[wall_end:].strip() in ("yes", "no", "store")

    def test_lowerings_cached(self):
        session = CompileSession()
        driver = CompilerDriver(session)
        compiled = driver.compile_source(DOUBLER, name="doubler.descend")
        assert compiled.to_cuda() is compiled.to_cuda()
        assert compiled.to_source() == compiled.to_source()
        plan, reason = compiled.device_plan("doubler")
        assert reason is None
        assert compiled.device_plan("doubler")[0] is plan
        assert session.plan_compiles == 1

    def test_diagnostics_identical_cold_vs_cached(self):
        session = CompileSession()
        driver = CompilerDriver(session)
        with pytest.raises(DescendTypeError) as cold:
            driver.compile_source(RACY, name="racy.descend")
        with pytest.raises(DescendTypeError) as cached:
            driver.compile_source(RACY, name="racy.descend")
        with pytest.raises(DescendTypeError) as fresh:
            CompilerDriver(CompileSession()).compile_source(RACY, name="racy.descend")
        rendered_cold = cold.value.diagnostic.render()
        assert cached.value.diagnostic.render() == rendered_cold
        assert fresh.value.diagnostic.render() == rendered_cold
        # The cached failure must not be recorded as a successful program.
        assert session.stats()["programs"] == 0
        assert session.stats()["failures"] == 1

    def test_syntax_failures_cached_with_identical_diagnostics(self):
        session = CompileSession()
        driver = CompilerDriver(session)
        with pytest.raises(DescendSyntaxError) as cold:
            driver.compile_source("fn oops(", name="oops.descend")
        with pytest.raises(DescendSyntaxError) as cached:
            driver.compile_source("fn oops(", name="oops.descend")
        assert session.stats()["failures"] == 1
        assert str(cached.value) == str(cold.value)

    def test_cached_failures_are_detached_copies(self):
        session = CompileSession()
        driver = CompilerDriver(session)
        with pytest.raises(DescendTypeError) as first:
            driver.compile_source(RACY, name="racy.descend")
        # Mutating a received diagnostic must not leak into future cached ones.
        first.value.diagnostic.with_note("caller-local note")
        with pytest.raises(DescendTypeError) as second:
            driver.compile_source(RACY, name="racy.descend")
        assert second.value is not first.value
        assert "caller-local note" not in second.value.diagnostic.render()

    def test_session_stores_are_bounded(self):
        session = CompileSession()
        session.MAX_UNITS = 4
        driver = CompilerDriver(session)
        for n in (32, 64, 128, 256, 512, 1024):
            driver.compile_program(vector.build_scale_program(n=n, block_size=32))
        assert session.stats()["programs"] == 4

    def test_session_eviction_is_lru_not_fifo(self):
        """A hot program must survive eviction even if it was inserted first."""
        session = CompileSession()
        session.MAX_UNITS = 2
        driver = CompilerDriver(session)
        hot = lambda: vector.build_scale_program(n=32, block_size=32)  # noqa: E731
        cold = lambda: vector.build_scale_program(n=64, block_size=32)  # noqa: E731
        driver.compile_program(hot())
        driver.compile_program(cold())
        driver.compile_program(hot())  # recency bump: hot is now MRU
        # Inserting a third program evicts the *least recently used* (cold),
        # not the oldest-inserted (hot).
        driver.compile_program(vector.build_scale_program(n=96, block_size=32))
        hits = session.hits
        driver.compile_program(hot())
        assert session.hits == hits + 1  # still cached
        misses = session.misses
        driver.compile_program(cold())
        assert session.misses == misses + 1  # was evicted, recompiles

    def test_session_scope_isolates_active_session(self):
        outer = active_session()
        with session_scope() as scoped:
            assert active_session() is scoped
            assert scoped is not outer
        assert active_session() is outer


def _opt(fun):
    return f"{fun} fuse-arith:0 dead-slots:0"


#: The (unit, pass, cached, detail, tier) records of :func:`_scripted_ops`
#: on a session without a store, or on one whose store starts empty.
COLD_RECORDS = [
    ("doubler.descend", "parse", False, "", "compute"),
    ("doubler.descend", "typeck", False, "", "compute"),
    ("doubler.descend", "lower.cuda", False, "", "compute"),
    ("doubler.descend", "lower.cuda", False, "", "compute"),
    ("doubler.descend", "lower.print", False, "", "compute"),
    ("doubler.descend", "lower.plan", False, "doubler", "compute"),
    ("doubler.descend", "lower.plan.opt", False, _opt("doubler"), "compute"),
    ("doubler.descend", "lower.plan", True, "doubler", "memory"),
    ("doubler.descend", "lower.plan.codegen", False, "doubler", "compute"),
    ("doubler.descend", "parse", True, "", "memory"),
    ("racy.descend", "parse", False, "", "compute"),
    ("racy.descend", "typeck", False, "", "compute"),
    ("racy.descend", "parse", True, "failure", "memory"),
    ("oops.descend", "parse", False, "", "compute"),
    ("oops.descend", "parse", True, "failure", "memory"),
    ("scale_vec", "typeck", False, "", "compute"),
    ("scale_vec", "lower.plan", False, "scale_vec", "compute"),
    ("scale_vec", "lower.plan.opt", False, _opt("scale_vec"), "compute"),
    ("scale_vec", "lower.plan.codegen", False, "scale_vec", "compute"),
    ("scale_vec", "lower.plan", True, "scale_vec", "memory"),
    ("scale_vec", "lower.plan.codegen", True, "scale_vec", "memory"),
]

#: The same ops on a fresh session over the store the cold run filled.
WARM_RECORDS = [
    ("doubler.descend", "parse", True, "", "store"),
    ("doubler.descend", "lower.cuda", True, "", "store"),
    ("doubler.descend", "lower.cuda", True, "", "store"),
    ("doubler.descend", "lower.print", True, "", "store"),
    ("doubler.descend", "lower.plan", True, "doubler", "store"),
    ("doubler.descend", "lower.plan.codegen", True, "doubler", "store"),
    ("doubler.descend", "parse", True, "", "memory"),
    ("racy.descend", "parse", True, "failure", "store"),
    ("racy.descend", "parse", True, "failure", "memory"),
    ("oops.descend", "parse", True, "failure", "store"),
    ("oops.descend", "parse", True, "failure", "memory"),
    ("scale_vec", "typeck", True, "", "store"),
    ("scale_vec", "lower.plan.codegen", True, "scale_vec", "store"),
    ("scale_vec", "lower.plan", True, "scale_vec", "store"),
    ("scale_vec", "lower.plan.codegen", True, "scale_vec", "memory"),
]


def _scripted_ops(session):
    """Every artifact kind, a recompile, cached failures and a jit launch."""
    driver = CompilerDriver(session)
    compiled = driver.compile_source(DOUBLER, name="doubler.descend")
    compiled.to_cuda()
    compiled.to_cuda({"n": 64})
    compiled.to_source()
    compiled.device_plan("doubler")
    compiled.plan_source("doubler")
    assert driver.compile_source(DOUBLER, name="doubler.descend") is compiled
    for text, name in ((RACY, "racy.descend"), ("fn oops(", "oops.descend")):
        for _ in range(2):
            with pytest.raises(DescendError):
                driver.compile_source(text, name=name)
    built = driver.compile_program(vector.build_scale_program(n=64, block_size=32))
    built.plan_source("scale_vec")
    built.device_plan("scale_vec")
    device = GpuDevice(execution_mode="jit")
    launch = built.kernel("scale_vec").launch(device, {"vec": device.to_device(np.ones(64))})
    assert launch.execution_mode == "jit"
    return [(t.unit, t.name, t.cached, t.detail, t.tier) for t in session.timings]


class TestTierRecords:
    """Which cache tier serves each artifact, pinned pass by pass."""

    def test_memory_cold_store_and_warm_store_sessions(self, tmp_path):
        kinds = {"program", "failure", "cuda", "print", "plan", "plan-src"}
        root = tmp_path / "store"
        sessions = {
            "memory": CompileSession(),
            "cold": CompileSession().attach_store(ArtifactStore(root)),
            "warm": CompileSession().attach_store(ArtifactStore(root)),
        }
        expected = {
            "memory": (COLD_RECORDS, 6, 15, 2),
            "cold": (COLD_RECORDS, 6, 15, 2),
            "warm": (WARM_RECORDS, 15, 0, 0),
        }
        for label, session in sessions.items():
            records, hits, misses, compiles = expected[label]
            assert _scripted_ops(session) == records, label
            assert (session.hits, session.misses) == (hits, misses), label
            assert session.plan_compiles == session.plan_source_compiles == compiles, label
        assert sessions["cold"].store.writes == 11
        assert sessions["warm"].store.writes == 0
        for label in ("cold", "warm"):
            assert set(sessions[label].store.stats()["kinds"]) == kinds, label


class TestPlanReuse:
    def test_repeated_launches_compile_one_plan(self):
        """Regression: launches used to rebuild the device plan every time."""
        with session_scope() as session:
            compiled = CompilerDriver(session).compile_source(DOUBLER, name="doubler.descend")
            device = GpuDevice(execution_mode="vectorized")
            kernel = compiled.kernel("doubler")
            data = np.arange(64, dtype=np.float64)
            buf = device.to_device(data)
            kernel.launch(device, {"vec": buf})
            kernel.launch(device, {"vec": buf})
            assert session.plan_compiles == 1
            # A *fresh* handle for the same program also reuses the plan.
            compiled.kernel("doubler").launch(device, {"vec": buf})
            assert session.plan_compiles == 1
            assert np.allclose(device.to_host(buf), data * 8)

    def test_raw_kernel_handles_share_the_session_plan(self):
        """DescendKernel built from a bare program (no driver) is cached too."""
        from repro.descend.interp import DescendKernel

        with session_scope() as session:
            program = vector.build_scale_program(n=64, block_size=32)
            device = GpuDevice(execution_mode="vectorized")
            for _ in range(3):
                buf = device.to_device(np.ones(64))
                DescendKernel(program, "scale_vec").launch(device, {"vec": buf})
            assert session.plan_compiles == 1

    def test_unhashable_program_compiles_uncached(self):
        """A list inside the AST leaves a program without a content key."""
        built = vector.build_scale_program(n=64, block_size=32)
        program = dataclasses.replace(built, view_defs=list(built.view_defs))
        assert CompileSession.program_key(program) is None
        with session_scope() as session:
            compiled = CompilerDriver(session).compile_program(program)
            data = np.arange(64, dtype=np.float64)
            reference = GpuDevice(execution_mode="reference")
            expected_buf = reference.to_device(data)
            expected = compiled.kernel("scale_vec").launch(reference, {"vec": expected_buf})
            device = GpuDevice(execution_mode="vectorized")
            for _ in range(3):
                buf = device.to_device(data)
                launch = compiled.kernel("scale_vec").launch(device, {"vec": buf})
                assert launch.execution_mode == "vectorized"
                assert launch.cycles == expected.cycles
                assert np.array_equal(device.to_host(buf), reference.to_host(expected_buf))
            # Nothing to key a cache entry on: every fresh handle lowers anew.
            assert session.plan_compiles == 3
            assert session.plan_source_compiles == 3

    def test_memory_hits_do_not_rehash_the_program(self, monkeypatch):
        """A builder program's key hashes its AST once, not on every hit."""
        from repro.descend.ast import terms as T

        with session_scope() as session:
            compiled = CompilerDriver(session).compile_program(
                vector.build_scale_program(n=64, block_size=32)
            )
            compiled.plan_source("scale_vec")
            hashes = []
            original = T.Program.__hash__

            def counting_hash(program):
                hashes.append(program)
                return original(program)

            monkeypatch.setattr(T.Program, "__hash__", counting_hash)
            mark = session.pass_counts_snapshot()
            for _ in range(100):
                plan_src, _ = compiled.plan_source("scale_vec")
                assert plan_src is not None
            assert session.pass_counts_since(mark) == {"lower.plan.codegen": {"memory": 100}}
            assert len(hashes) == 0

    def test_host_interpreter_reuses_kernel_handles(self):
        with session_scope() as session:
            compiled = CompilerDriver(session).compile_program(
                vector.build_scale_program(n=64, block_size=32)
            )
            device = GpuDevice(execution_mode="vectorized")
            result = compiled.run_host("host_scale", {"h_vec": np.ones(64)}, device=device)
            assert np.allclose(result.array("h_vec"), 3.0)
            assert session.plan_compiles == 1

    def test_unsupported_plan_cached_with_reason(self):
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
        with session_scope() as session:
            compiled = CompilerDriver(session).compile_program(program(kernel_def))
            device = GpuDevice(execution_mode="vectorized")
            for _ in range(2):
                kernel = compiled.kernel("guarded_sync")
                launch = kernel.launch(device, {"vec": device.to_device(np.ones(64))})
                assert launch.execution_mode == "reference"
                assert kernel.fallback_reason is not None
            # The PlanUnsupported outcome is cached: one lowering attempt total.
            assert session.plan_compiles == 1


class TestParityThroughDriver:
    def test_reference_and_vectorized_agree_through_driver(self):
        with session_scope() as session:
            compiled = CompilerDriver(session).compile_source(DOUBLER, name="doubler.descend")
            data = np.arange(64, dtype=np.float64)
            results = {}
            for mode in ("reference", "vectorized"):
                device = GpuDevice(execution_mode=mode)
                buf = device.to_device(data)
                launch = compiled.kernel("doubler").launch(device, {"vec": buf})
                results[mode] = (launch.cycles, len(launch.races), device.to_host(buf))
            ref, vec = results["reference"], results["vectorized"]
            assert ref[0] == vec[0]  # identical simulated cycles
            assert ref[1] == vec[1] == 0  # no races on either engine
            assert np.allclose(ref[2], vec[2])
            assert np.allclose(vec[2], data * 2)


class TestCompileBench:
    def test_compile_bench_speedup_and_digests(self):
        result = run_compile_bench(programs=("scale_vec", "reduce"), repeats=1)
        assert len(result.rows) == 2
        for row in result.rows:
            assert row.cold_total_s > 0
            assert row.speedup > 2.0
            assert row.diagnostics_digest and row.cuda_digest
        assert result.geometric_mean_speedup > 2.0
