"""Chaos suite: the deterministic fault-injection harness and what survives it.

Covers the `repro.faults` registry itself (grammar, determinism, the epoch
mechanism) and then drives injected failures through every hardened seam:

* store: torn writes quarantine-then-heal, transient read errors degrade to
  misses, a chaos-ridden warm store still reproduces byte-identical output;
* serve: dropped/torn responses are healed by the client's retry loop, an
  exploding executor answers a structured error and the daemon stays up,
  queued-out requests honor their ``deadline_ms``;
* sweep: cells that fail (or whose worker hard-crashes) on their first
  attempt are requeued at the next fault epoch and succeed, recorded in
  ``retries``; a worker that fails at start-up is respawned one epoch on.
"""

import socket as socket_module
import threading
import time

import pytest

from repro import faults
from repro.descend.api import (
    ERR_DEADLINE,
    ERR_INTERNAL,
    ERR_RETRIES_EXHAUSTED,
    OP_COMPILE,
    DescendClient,
    LocalBackend,
    Request,
    RetryPolicy,
)
from repro.descend.driver import CompilerDriver, CompileSession
from repro.descend.serve import ServeConfig, ServerThread
from repro.descend.store import ArtifactStore
from repro.faults import (
    FaultRegistry,
    FaultSpecError,
    InjectedError,
    InjectedOSError,
    parse_spec,
)

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


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    """Every test starts (and leaves) with no fault plan and fresh counters."""
    monkeypatch.delenv(faults.ENV_SPEC, raising=False)
    monkeypatch.delenv(faults.ENV_EPOCH, raising=False)
    faults.reset()
    yield
    faults.reset()


class TestSpecGrammar:
    def test_full_grammar_round_trip(self):
        plan = parse_spec(
            "seed=42; store.blob.write:kind=torn,max=2;"
            "serve.conn.write:kind=drop,nth=2,p=0.5,epoch=1"
        )
        assert plan.seed == 42
        write, drop = plan.rules
        assert (write.site, write.kind, write.max_fires) == ("store.blob.write", "torn", 2)
        assert write.nth is None and write.p == 1.0 and write.epoch is None
        assert (drop.nth, drop.p, drop.epoch) == (2, 0.5, 1)
        assert plan.rules_for("serve.conn.write") == (drop,)
        assert plan.rules_for("sweep.cell") == ()

    def test_unknown_site_fails_loud(self):
        with pytest.raises(FaultSpecError, match="unknown fault site"):
            parse_spec("store.blob.raed:kind=torn")

    def test_unknown_kind_fails_loud(self):
        with pytest.raises(FaultSpecError, match="unknown fault kind"):
            parse_spec("store.blob.read:kind=explode")

    def test_unknown_field_fails_loud(self):
        with pytest.raises(FaultSpecError, match="unknown fault rule field"):
            parse_spec("store.blob.read:kind=torn,when=later")

    def test_missing_kind_fails_loud(self):
        with pytest.raises(FaultSpecError, match="missing kind="):
            parse_spec("store.blob.read:nth=1")

    def test_numeric_ranges_are_validated(self):
        with pytest.raises(FaultSpecError, match="not in \\[0, 1\\]"):
            parse_spec("store.blob.read:kind=torn,p=1.5")
        with pytest.raises(FaultSpecError, match="nth=0"):
            parse_spec("store.blob.read:kind=torn,nth=0")
        with pytest.raises(FaultSpecError, match="bad fault seed"):
            parse_spec("seed=lots;store.blob.read:kind=torn")


class TestRegistryDeterminism:
    def test_nth_fires_on_exactly_the_nth_hit(self):
        registry = FaultRegistry(parse_spec("store.blob.read:kind=exc,nth=3"))
        fired = [registry.check("store.blob.read") is not None for _ in range(5)]
        assert fired == [False, False, True, False, False]

    def test_max_caps_total_fires(self):
        registry = FaultRegistry(parse_spec("store.blob.read:kind=exc,max=2"))
        fired = [registry.check("store.blob.read") is not None for _ in range(4)]
        assert fired == [True, True, False, False]

    def test_probabilistic_schedule_is_a_pure_function_of_the_seed(self):
        spec = "seed=7;serve.conn.write:kind=drop,p=0.5"
        a = FaultRegistry(parse_spec(spec))
        b = FaultRegistry(parse_spec(spec))
        schedule_a = [a.check("serve.conn.write") is not None for _ in range(64)]
        schedule_b = [b.check("serve.conn.write") is not None for _ in range(64)]
        assert schedule_a == schedule_b
        assert any(schedule_a) and not all(schedule_a)
        other = FaultRegistry(parse_spec("seed=8;serve.conn.write:kind=drop,p=0.5"))
        schedule_other = [other.check("serve.conn.write") is not None for _ in range(64)]
        assert schedule_other != schedule_a

    def test_epoch_scopes_a_rule_to_one_retry_round(self):
        plan = parse_spec("sweep.cell:kind=exc,epoch=0")
        round0 = FaultRegistry(plan, epoch=0)
        round1 = FaultRegistry(plan, epoch=1)
        assert round0.check("sweep.cell") is not None
        assert round1.check("sweep.cell") is None

    def test_environment_activation_and_report(self, monkeypatch):
        assert faults.check("store.blob.read") is None  # the production fast path
        monkeypatch.setenv(faults.ENV_SPEC, "store.blob.read:kind=oserror,nth=2")
        assert faults.check("store.blob.read") is None
        with pytest.raises(InjectedOSError):
            faults.maybe_raise("store.blob.read")
        report = faults.report()
        assert report["hits"] == {"store.blob.read": 2}
        assert report["fired"] == {"store.blob.read:oserror": 1}
        monkeypatch.delenv(faults.ENV_SPEC)
        assert faults.report() is None  # env change takes effect with no reload

    def test_maybe_raise_kinds(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_SPEC, "serve.exec.submit:kind=exc")
        with pytest.raises(InjectedError):
            faults.maybe_raise("serve.exec.submit")
        monkeypatch.setenv(faults.ENV_SPEC, "store.blob.write:kind=torn")
        rule = faults.maybe_raise("store.blob.write")  # data kinds are returned
        assert rule is not None and rule.kind == "torn"


class TestStoreChaos:
    def test_torn_write_quarantines_then_heals(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "store")
        digest = "ab" * 32
        monkeypatch.setenv(faults.ENV_SPEC, "store.blob.write:kind=torn,nth=1")
        assert store.store(digest, {"payload": list(range(64))})  # torn on disk
        assert store.load(digest) is None  # unpicklable: miss, not a crash
        assert store.quarantined == 1
        assert store.quarantine_entries() == 1
        # The next write of the same digest heals it (fault already spent).
        assert store.store(digest, {"payload": "healed"})
        assert store.load(digest) == {"payload": "healed"}
        assert store.stats()["quarantine_entries"] == 1

    def test_transient_read_error_misses_without_quarantine(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "store")
        digest = "cd" * 32
        assert store.store(digest, "fine")
        monkeypatch.setenv(faults.ENV_SPEC, "store.blob.read:kind=oserror,nth=1")
        assert store.load(digest) is None  # the disk said no: plain miss
        assert store.quarantined == 0
        assert store.load(digest) == "fine"  # healthy retry still hits

    def test_flock_and_rename_failures_degrade_to_false(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "store")
        monkeypatch.setenv(faults.ENV_SPEC, "store.blob.rename:kind=oserror,nth=1")
        assert store.store("ef" * 32, "x") is False  # rename refused: no write
        assert store.store("ef" * 32, "x") is True
        monkeypatch.setenv(faults.ENV_SPEC, "store.index.flock:kind=oserror,nth=1")
        faults.reset()
        assert store.store("01" * 32, "y") is False  # index locked out: no write
        assert store.errors >= 2

    def test_chaotic_warm_store_reproduces_bytes_exactly(self, tmp_path, monkeypatch):
        """The warm-run acceptance criterion: every blob read torn, every
        lookup degrades to a cold compile — and the output does not change
        by a byte relative to the fault-free warm run."""
        root = tmp_path / "store"

        def cuda_of(session):
            compiled = CompilerDriver(session).compile_source(DOUBLER, name="d.descend")
            return compiled.to_cuda().full_source()

        baseline = cuda_of(CompileSession(label="fill").attach_store(ArtifactStore(root)))
        monkeypatch.setenv(faults.ENV_SPEC, "store.blob.read:kind=torn,p=1.0")
        chaos_store = ArtifactStore(root)
        chaotic = cuda_of(CompileSession(label="chaos").attach_store(chaos_store))
        assert chaotic == baseline
        assert chaos_store.quarantined > 0  # the faults really fired


class TestServeChaos:
    @pytest.fixture
    def socket_path(self, tmp_path):
        return str(tmp_path / "chaos.sock")

    def _fast_retry(self):
        return RetryPolicy(max_attempts=3, base_delay_s=0.01, max_delay_s=0.05)

    def test_dropped_response_is_healed_by_retry(self, socket_path, monkeypatch):
        monkeypatch.setenv(faults.ENV_SPEC, "serve.conn.write:kind=drop,nth=1")
        backend = LocalBackend(label="chaos-drop")
        with ServerThread(backend, ServeConfig(socket_path)):
            client = DescendClient(socket_path, retry=self._fast_retry())
            response = client.compile(source=DOUBLER)
            client.close()
        assert response.ok
        assert "__global__ void doubler" in response.artifacts["cuda"]

    def test_torn_response_is_healed_by_retry(self, socket_path, monkeypatch):
        monkeypatch.setenv(faults.ENV_SPEC, "serve.conn.write:kind=torn,nth=1")
        with ServerThread(LocalBackend(label="chaos-torn"), ServeConfig(socket_path)):
            client = DescendClient(socket_path, retry=self._fast_retry())
            response = client.compile(source=DOUBLER)
            client.close()
        assert response.ok

    def test_connection_dropped_mid_read_is_healed_by_retry(self, socket_path, monkeypatch):
        monkeypatch.setenv(faults.ENV_SPEC, "serve.conn.read:kind=drop,nth=1")
        with ServerThread(LocalBackend(label="chaos-read"), ServeConfig(socket_path)):
            client = DescendClient(socket_path, retry=self._fast_retry())
            response = client.ping()
            client.close()
        assert response.ok

    def test_retries_exhausted_is_a_structured_response(self, socket_path, monkeypatch):
        # Every response dropped: an idempotent op must come back as a
        # structured error, not an exception.
        monkeypatch.setenv(faults.ENV_SPEC, "serve.conn.write:kind=drop")
        with ServerThread(LocalBackend(label="chaos-dead"), ServeConfig(socket_path)):
            client = DescendClient(
                socket_path, retry=RetryPolicy(max_attempts=2, base_delay_s=0.01)
            )
            response = client.ping()
            client.close()
        assert not response.ok
        assert response.error_code == ERR_RETRIES_EXHAUSTED
        assert "after 2 attempt(s)" in response.error_message

    def test_executor_fault_answers_structured_error_and_daemon_survives(
        self, socket_path, monkeypatch
    ):
        monkeypatch.setenv(faults.ENV_SPEC, "serve.exec.submit:kind=exc,nth=1")
        with ServerThread(LocalBackend(label="chaos-exec"), ServeConfig(socket_path)):
            client = DescendClient(socket_path, retry=self._fast_retry())
            first = client.compile(source=DOUBLER)
            assert not first.ok
            assert first.error_code == ERR_INTERNAL
            assert "injected exception" in first.error_message
            # The daemon is still alive and serving after the fault.
            second = client.compile(source=DOUBLER)
            assert second.ok
            assert client.ping().ok
            client.close()

    def test_health_reports_server_stats_and_fault_ledger(self, socket_path, monkeypatch):
        monkeypatch.setenv(faults.ENV_SPEC, "seed=9;serve.conn.write:kind=drop,nth=99")
        with ServerThread(LocalBackend(label="chaos-health"), ServeConfig(socket_path)):
            client = DescendClient(socket_path, retry=self._fast_retry())
            response = client.health()
            client.close()
        assert response.ok
        assert response.artifacts["healthy"] is True
        assert response.artifacts["server"]["requests"] >= 1
        assert response.artifacts["faults"]["seed"] == 9

    def test_deadline_ms_expires_while_queued(self, socket_path):
        thread = ServerThread(LocalBackend(label="deadline"), ServeConfig(socket_path)).start()
        try:
            gate = threading.Event()
            thread.server._executor.submit(gate.wait)  # wedge the single writer
            threading.Timer(0.3, gate.set).start()
            client = DescendClient(socket_path)
            response = client.handle(
                Request(op=OP_COMPILE, source=DOUBLER, options={"deadline_ms": 20})
            )
            client.close()
            assert not response.ok
            assert response.error_code == ERR_DEADLINE
            gate.set()
        finally:
            thread.stop()

    def test_idle_connections_are_reclaimed_after_read_timeout(self, socket_path):
        config = ServeConfig(socket_path, read_timeout_s=0.2)
        with ServerThread(LocalBackend(label="idle"), config):
            sock = socket_module.socket(socket_module.AF_UNIX, socket_module.SOCK_STREAM)
            sock.settimeout(10.0)
            try:
                sock.connect(socket_path)
                start = time.monotonic()
                assert sock.recv(1) == b""  # the daemon hung up on the idler
                assert time.monotonic() - start < 5.0
            finally:
                sock.close()


class TestSweepChaos:
    """Chaos through the `--jobs` sweep entry point: the bench API hands the
    cells to the dispatcher and must surface its healing and its failures."""

    def _sweep(self):
        from repro.benchsuite.enginebench import run_engine_bench

        return run_engine_bench(
            "descend", benchmarks=("transpose",), rows=(("small", 1),), budget_s=0.0, jobs=2,
        )

    def test_worker_crash_is_retried_on_a_fresh_pool(self, monkeypatch):
        # kind=crash hard-kills the worker (os._exit): the dispatcher spawns
        # a fresh worker one fault epoch on, which measures the cell.
        monkeypatch.setenv(faults.ENV_SPEC, "sweep.cell:kind=crash,epoch=0")
        result = self._sweep()
        assert [row.benchmark for row in result.rows] == ["transpose"]
        assert result.rows[0].retries == 1
        assert result.rows[0].host  # the fresh worker stamped the row
        assert result.all_cycles_match

    def test_persistent_failure_aborts_loud_with_the_cell_name(self, monkeypatch):
        from repro.errors import BenchmarkError

        monkeypatch.setenv(faults.ENV_SPEC, "sweep.cell:kind=exc")  # every attempt
        with pytest.raises(BenchmarkError, match="transpose/small"):
            self._sweep()


class TestHttpStoreChaos:
    """Chaos at the HTTP store seams: the client's retry/degradation
    machinery must make remote faults look like local ones (healed drops,
    quarantined torn payloads, store()->False on persistent failure)."""

    @pytest.fixture
    def http_store(self, tmp_path):
        config = ServeConfig(
            str(tmp_path / "serve.sock"),
            store_path=str(tmp_path / "store"),
            store_http_port=0,
        )
        with ServerThread(LocalBackend(label="http-chaos"), config) as thread:
            yield ArtifactStore(thread.store_url)

    def test_dropped_http_response_is_healed_by_retry(self, http_store, monkeypatch):
        digest = "ab" * 32
        assert http_store.store(digest, {"payload": "remote"})
        monkeypatch.setenv(faults.ENV_SPEC, "store.http.get:kind=drop,nth=1")
        assert http_store.load(digest) == {"payload": "remote"}  # retried
        assert http_store.errors == 0  # the drop never surfaced
        assert faults.report()["fired"] == {"store.http.get:drop": 1}

    def test_torn_http_payload_quarantines_then_heals(self, http_store, monkeypatch):
        digest = "cd" * 32
        assert http_store.store(digest, {"payload": list(range(64))})
        monkeypatch.setenv(faults.ENV_SPEC, "store.http.get:kind=torn,nth=1")
        assert http_store.load(digest) is None  # truncated pickle: a miss
        assert http_store.quarantined == 1  # moved aside server-side
        # Heal-on-next-write, over the wire like everything else.
        assert http_store.store(digest, {"payload": "healed"})
        assert http_store.load(digest) == {"payload": "healed"}

    def test_persistent_http_failure_degrades_store_to_false(
        self, http_store, monkeypatch
    ):
        monkeypatch.setenv(faults.ENV_SPEC, "store.http.put:kind=drop")  # every attempt
        assert http_store.store("ef" * 32, "x") is False  # degraded, not raised
        assert http_store.errors >= 1
        monkeypatch.delenv(faults.ENV_SPEC)
        assert http_store.store("ef" * 32, "x") is True  # healthy again
        assert http_store.load("ef" * 32) == "x"

    def test_transient_http_read_error_misses_without_quarantine(
        self, http_store, monkeypatch
    ):
        digest = "01" * 32
        assert http_store.store(digest, "fine")
        monkeypatch.setenv(faults.ENV_SPEC, "store.http.get:kind=oserror")
        assert http_store.load(digest) is None  # every attempt refused: miss
        assert http_store.quarantined == 0
        monkeypatch.delenv(faults.ENV_SPEC)
        assert http_store.load(digest) == "fine"  # healthy retry still hits


class TestDispatchChaos:
    """Chaos at the dispatcher's seams: dropped assignments, failed cells and
    killed workers are charged to the cell's retry budget and healed by
    requeue; failed worker start-ups are healed by respawn."""

    def _cells(self):
        from repro.benchsuite.dispatch import make_cells

        return make_cells("descend", [("transpose", "small", 1)], 1, 0.0)

    def test_cell_failure_is_retried_with_an_advanced_epoch(self, monkeypatch):
        from repro.benchsuite.dispatch import dispatch_cells

        monkeypatch.setenv(faults.ENV_SPEC, "sweep.cell:kind=exc,epoch=0")
        rows = dispatch_cells(self._cells(), jobs=1)
        assert len(rows) == 1
        assert rows[0].benchmark == "transpose"
        assert rows[0].retries == 1  # failed at epoch 0, succeeded at epoch 1
        assert rows[0].as_dict()["retries"] == 1

    def test_spawn_failure_heals_on_the_respawned_worker(self, monkeypatch):
        from repro.benchsuite.dispatch import dispatch_cells

        # The first worker fails its start-up at epoch 0; its replacement
        # starts one epoch on and measures the cell.  No cell attempt was
        # lost, so the row records no retry.
        monkeypatch.setenv(faults.ENV_SPEC, "sweep.spawn:kind=oserror,epoch=0")
        messages = []
        rows = dispatch_cells(self._cells(), jobs=1, progress=messages.append)
        assert len(rows) == 1
        assert rows[0].retries == 0
        assert any("respawning" in message for message in messages), messages

    def test_dropped_assignment_is_requeued(self, monkeypatch):
        from repro.benchsuite.dispatch import dispatch_cells

        # The coordinator's sweep.dispatch seam fires once: the assignment
        # is dropped with the connection, the worker dies on EOF, and the
        # requeued cell lands on the respawned worker.
        monkeypatch.setenv(faults.ENV_SPEC, "sweep.dispatch:kind=exc,nth=1")
        rows = dispatch_cells(self._cells(), jobs=1)
        assert len(rows) == 1
        assert rows[0].benchmark == "transpose"
        assert rows[0].retries == 1

    def test_killed_worker_is_respawned_and_healed(self, monkeypatch):
        from repro.benchsuite.dispatch import dispatch_cells

        # kind=crash hard-kills the worker process mid-cell (os._exit); the
        # epoch=0 scope means the respawned worker's second attempt — which
        # carries the advanced fault epoch — runs clean.
        monkeypatch.setenv(faults.ENV_SPEC, "sweep.cell:kind=crash,epoch=0")
        rows = dispatch_cells(self._cells(), jobs=1)
        assert len(rows) == 1
        assert rows[0].retries == 1
        assert rows[0].host  # the surviving worker stamped the row

    def test_persistent_cell_failure_aborts_loud(self, monkeypatch):
        from repro.benchsuite.dispatch import dispatch_cells
        from repro.errors import BenchmarkError

        monkeypatch.setenv(faults.ENV_SPEC, "sweep.cell:kind=exc")  # every attempt
        with pytest.raises(BenchmarkError, match="transpose/small"):
            dispatch_cells(self._cells(), jobs=1, max_attempts=2)
