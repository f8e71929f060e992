"""Tests for the compile-service daemon and the `repro.descend.api` facade."""

import json
import logging
import socket as socket_module
import sys
import threading
import time
import warnings

import pytest

from repro.descend.api import (
    API_VERSION,
    ERR_BAD_REQUEST,
    ERR_MALFORMED,
    ERR_OVERSIZED,
    ERR_SHUTTING_DOWN,
    ERR_TYPE,
    ERR_UNKNOWN_OP,
    ERR_UNSUPPORTED_VERSION,
    OP_COMPILE,
    DescendClient,
    LocalBackend,
    Request,
    Response,
    encode_frame,
)
from repro.descend.driver import CompilerDriver, CompileSession
from repro.descend.serve import ServeConfig, ServerThread, coalesce_key

GOOD_SOURCE = """
fn scale_vec(vec: &uniq gpu.global [f64; 64]) -[grid: gpu.grid<X<2>, X<32>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            vec.group::<32>[[block]][[thread]] = vec.group::<32>[[block]][[thread]] * 3.0
        }
    }
}
"""

# data race: every thread writes element 0 of its block's group
BAD_SOURCE = """
fn broken(vec: &uniq gpu.global [f64; 64]) -[grid: gpu.grid<X<2>, X<32>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            vec.group::<32>[[block]][0] = 1.0
        }
    }
}
"""


@pytest.fixture
def socket_path(tmp_path):
    return str(tmp_path / "serve.sock")


@pytest.fixture
def server(socket_path):
    with ServerThread(LocalBackend(label="test-serve"), ServeConfig(socket_path)) as thread:
        yield thread


@pytest.fixture
def client(server, socket_path):
    with DescendClient(socket_path) as c:
        yield c


def _raw_exchange(socket_path, payload: bytes) -> dict:
    """Send raw bytes to the daemon and decode the one-line JSON answer."""
    sock = socket_module.socket(socket_module.AF_UNIX, socket_module.SOCK_STREAM)
    sock.settimeout(10.0)
    try:
        sock.connect(socket_path)
        sock.sendall(payload)
        reader = sock.makefile("rb")
        return json.loads(reader.readline())
    finally:
        sock.close()


class TestRoundTrip:
    def test_ping(self, client):
        response = client.ping()
        assert response.ok
        assert response.artifacts["pong"] is True
        assert response.artifacts["requests"] >= 1

    def test_check(self, client):
        response = client.check(source=GOOD_SOURCE, name="good.descend")
        assert response.ok
        assert response.artifacts["functions"] == ["scale_vec"]

    def test_compile(self, client):
        response = client.compile(source=GOOD_SOURCE)
        assert response.ok
        assert "__global__ void scale_vec" in response.artifacts["cuda"]

    def test_compile_by_path(self, client, tmp_path):
        path = tmp_path / "good.descend"
        path.write_text(GOOD_SOURCE)
        response = client.handle(Request(op=OP_COMPILE, path=str(path)))
        assert response.ok
        assert "__global__" in response.artifacts["cuda"]

    def test_print(self, client):
        response = client.print_source(source=GOOD_SOURCE)
        assert response.ok
        assert "fn scale_vec" in response.artifacts["source"]

    def test_plan(self, client):
        response = client.plan(source=GOOD_SOURCE)
        assert response.ok
        assert response.artifacts["ir"].startswith("plan scale_vec exec gpu.grid")

    def test_plan_unknown_fun_is_bad_request(self, client):
        response = client.plan(source=GOOD_SOURCE, fun="nope")
        assert not response.ok
        assert response.error_code == ERR_BAD_REQUEST
        assert "not a GPU function" in response.error_message

    def test_cache_stats(self, client):
        client.compile(source=GOOD_SOURCE)
        response = client.cache_stats()
        assert response.ok
        assert response.artifacts["session"]["misses"] > 0

    def test_response_ids_match_requests(self, client):
        response = client.handle(Request(op=OP_COMPILE, source=GOOD_SOURCE, id="req-42"))
        assert response.id == "req-42"

    def test_shutdown_stops_the_server(self, server, socket_path):
        with DescendClient(socket_path) as c:
            assert c.shutdown().ok
        server._thread.join(10.0)
        assert not server._thread.is_alive()


class TestParityWithInProcess:
    def test_cuda_and_diagnostics_byte_identical(self, client):
        """The daemon is a LocalBackend behind a socket: identical bytes."""
        backend = LocalBackend(label="test-inproc")
        for source in (GOOD_SOURCE, BAD_SOURCE):
            local = backend.handle(Request(op=OP_COMPILE, source=source, name="p.descend"))
            remote = client.compile(source=source, name="p.descend")
            assert remote.status == local.status
            assert remote.artifacts == local.artifacts
            assert remote.diagnostics == local.diagnostics
            assert remote.error == local.error

    def test_matches_direct_driver_compile(self, client):
        compiled = CompilerDriver(CompileSession()).compile_source(
            GOOD_SOURCE, "direct.descend"
        )
        remote = client.compile(source=GOOD_SOURCE, name="direct.descend")
        assert remote.artifacts["cuda"] == compiled.to_cuda().full_source()

    def test_type_error_reports_rendered_diagnostic(self, client):
        response = client.compile(source=BAD_SOURCE, name="bad.descend")
        assert not response.ok
        assert response.error_code == ERR_TYPE
        assert len(response.diagnostics) == 1
        assert response.diagnostics[0].startswith("error[")


class TestWarmStore:
    def test_second_daemon_serves_from_store_tier_only(self, tmp_path):
        """A restarted daemon over the same store runs zero compute passes."""
        store = str(tmp_path / "store")

        def run_daemon(label, sock):
            backend = LocalBackend(label=label)
            with ServerThread(backend, ServeConfig(str(sock), store_path=store)):
                with DescendClient(str(sock)) as c:
                    return c.compile(source=GOOD_SOURCE, name="warm.descend")

        cold = run_daemon("cold", tmp_path / "cold.sock")
        warm = run_daemon("warm", tmp_path / "warm.sock")
        assert cold.ok and warm.ok
        assert warm.artifacts["cuda"] == cold.artifacts["cuda"]
        assert any("compute" in tiers for tiers in cold.pass_tiers.values())
        for pass_name, tiers in warm.pass_tiers.items():
            assert "compute" not in tiers, (pass_name, warm.pass_tiers)
        assert warm.pass_tiers  # store-tier rows, not an empty report


class TestProtocolRobustness:
    def test_malformed_json_gets_structured_error(self, server, socket_path):
        frame = _raw_exchange(socket_path, b"this is not json\n")
        assert frame["status"] == "error"
        assert frame["error"]["code"] == ERR_MALFORMED

    def test_unknown_version_gets_structured_error(self, server, socket_path):
        frame = _raw_exchange(
            socket_path, encode_frame({"v": 99, "op": "compile", "id": "x"})
        )
        assert frame["error"]["code"] == ERR_UNSUPPORTED_VERSION
        assert frame["id"] == "x"  # the reply is correlated even on failure

    def test_unknown_op_gets_structured_error(self, server, socket_path):
        frame = _raw_exchange(
            socket_path, encode_frame({"v": API_VERSION, "op": "frobnicate"})
        )
        assert frame["error"]["code"] == ERR_UNKNOWN_OP

    def test_missing_source_gets_bad_request(self, server, socket_path):
        frame = _raw_exchange(socket_path, encode_frame({"v": API_VERSION, "op": "compile"}))
        assert frame["error"]["code"] == ERR_BAD_REQUEST

    def test_oversized_frame_gets_structured_error(self, tmp_path):
        sock = str(tmp_path / "small.sock")
        config = ServeConfig(sock, max_frame_bytes=4096)
        with ServerThread(LocalBackend(label="small"), config):
            big = encode_frame(
                {"v": API_VERSION, "op": "compile", "source": "x" * 8192}
            )
            frame = _raw_exchange(sock, big)
            assert frame["error"]["code"] == ERR_OVERSIZED
            # The server survived: a fresh client still gets answers.
            with DescendClient(sock) as c:
                assert c.ping().ok

    def test_protocol_errors_do_not_kill_the_server(self, server, socket_path):
        _raw_exchange(socket_path, b"{broken\n")
        _raw_exchange(socket_path, encode_frame({"v": 7, "op": "compile"}))
        with DescendClient(socket_path) as c:
            assert c.ping().ok
            assert c.compile(source=GOOD_SOURCE).ok
        assert server.server.protocol_errors == 2


class TestCoalescing:
    def test_identical_inflight_compiles_coalesce(self, tmp_path):
        sock = str(tmp_path / "coalesce.sock")
        n_clients = 4
        backend = LocalBackend(label="coalesce")
        with ServerThread(backend, ServeConfig(sock)) as thread:
            gate = threading.Event()
            # Occupy the single compile worker so every request queues behind
            # it and the followers reliably find the leader in flight.
            thread.server._executor.submit(gate.wait)
            responses = [None] * n_clients

            def fire(k):
                with DescendClient(sock) as c:
                    responses[k] = c.compile(source=GOOD_SOURCE, name="same.descend")

            threads = [threading.Thread(target=fire, args=(k,)) for k in range(n_clients)]
            for t in threads:
                t.start()
            deadline = time.monotonic() + 10.0
            while thread.server.coalesced < n_clients - 1:
                assert time.monotonic() < deadline, thread.server.stats()
                time.sleep(0.005)
            gate.set()
            for t in threads:
                t.join(10.0)
            assert thread.server.coalesced == n_clients - 1
        assert all(r is not None and r.ok for r in responses)
        cudas = {r.artifacts["cuda"] for r in responses}
        assert len(cudas) == 1
        # One compile ran for the four clients.
        assert backend.session.pass_counts["typeck"]["compute"] == 1

    def test_coalesce_key_ignores_id_but_not_content(self):
        a = Request(op=OP_COMPILE, source=GOOD_SOURCE, id="a")
        b = Request(op=OP_COMPILE, source=GOOD_SOURCE, id="b")
        c = Request(op=OP_COMPILE, source=BAD_SOURCE, id="a")
        assert coalesce_key(a) == coalesce_key(b)
        assert coalesce_key(a) != coalesce_key(c)
        assert coalesce_key(Request(op="ping")) is None


class TestGracefulShutdown:
    def test_drain_finishes_inflight_work(self, tmp_path):
        sock = str(tmp_path / "drain.sock")
        backend = LocalBackend(label="drain")
        thread = ServerThread(backend, ServeConfig(sock)).start()
        gate = threading.Event()
        thread.server._executor.submit(gate.wait)
        result = {}

        def fire():
            with DescendClient(sock) as c:
                result["response"] = c.compile(source=GOOD_SOURCE)

        worker = threading.Thread(target=fire)
        worker.start()
        deadline = time.monotonic() + 10.0
        while thread.server._pending < 1:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        # Stop while the compile is queued behind the blocked worker: drain
        # must wait for it and flush the response before exiting.
        thread.server.stop_threadsafe()
        gate.set()
        worker.join(10.0)
        thread._thread.join(10.0)
        assert not thread._thread.is_alive()
        assert result["response"].ok
        assert "__global__" in result["response"].artifacts["cuda"]

    def test_shutdown_with_an_idle_connection_logs_no_traceback(self, tmp_path, caplog):
        sock = str(tmp_path / "idle.sock")
        thread = ServerThread(LocalBackend(label="idle"), ServeConfig(sock)).start()
        with DescendClient(sock) as idle, DescendClient(sock) as stopper:
            # The idle client stays connected, its handler blocked in a read,
            # while the daemon shuts down.
            assert idle.ping().ok
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                assert stopper.shutdown().ok
                thread._thread.join(10.0)
        assert not thread._thread.is_alive()
        assert not [r for r in caplog.records if r.name == "asyncio"], caplog.text

    def test_requests_after_stop_get_shutting_down(self, tmp_path):
        sock = str(tmp_path / "stopping.sock")
        with ServerThread(LocalBackend(label="stopping"), ServeConfig(sock)) as thread:
            request = Request(op=OP_COMPILE, source=GOOD_SOURCE)
            response = Response.failure(
                request.op, ERR_SHUTTING_DOWN, "server is shutting down"
            )
            # The wire constant is part of schema v1.
            assert response.error_code == ERR_SHUTTING_DOWN
            assert thread.server.stats()["requests"] == 0


class TestStartupRobustness:
    def test_stale_socket_file_is_replaced(self, tmp_path):
        # A daemon that died without cleanup leaves its socket file behind;
        # the next daemon must bind over it, not die on EADDRINUSE.
        path = str(tmp_path / "stale.sock")
        leftover = socket_module.socket(socket_module.AF_UNIX, socket_module.SOCK_STREAM)
        leftover.bind(path)
        leftover.close()
        with ServerThread(LocalBackend(label="stale"), ServeConfig(path)):
            with DescendClient(path) as c:
                assert c.ping().ok

    def test_missing_socket_parent_directory_is_created(self, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "serve.sock")
        with ServerThread(LocalBackend(label="mkdir"), ServeConfig(path)):
            with DescendClient(path) as c:
                assert c.ping().ok

    def test_refuses_to_delete_a_regular_file_at_the_socket_path(self, tmp_path):
        from repro.descend.serve.server import CompileServer

        path = tmp_path / "not-a-socket"
        path.write_text("precious")
        CompileServer._unlink_stale_socket(str(path))
        assert path.read_text() == "precious"


class TestSessionThreadSafety:
    def test_concurrent_compiles_keep_counters_consistent(self):
        session = CompileSession(label="hammer")
        sources = [GOOD_SOURCE, BAD_SOURCE, GOOD_SOURCE.replace("3.0", "4.0")]
        errors = []

        def hammer(k):
            driver = CompilerDriver(session)
            for i in range(20):
                text = sources[(k + i) % len(sources)]
                try:
                    driver.compile_source(text, name=f"unit{(k + i) % len(sources)}")
                except Exception as exc:
                    if "broken" not in text:
                        errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert not errors
        # The monotonic counters add up: every recorded pass was either a
        # hit or a miss.
        total = sum(
            count for tiers in session.pass_counts.values() for count in tiers.values()
        )
        assert total == session.hits + session.misses
        # Each distinct unit computed its passes at least once.  The lookup
        # is atomic but the miss path computes outside the lock, so two
        # threads racing the same cold unit may both compile it — benign
        # duplicate work, one cache winner — hence >= rather than ==.
        assert session.pass_counts["parse"]["compute"] >= len(sources)

    def test_concurrent_lowerings_match_a_serial_session(self):
        """Lowerings compute outside the lock: racing threads still agree."""
        from repro.descend.plan import disassemble

        def lowerings(compiled):
            plan, _ = compiled.device_plan("scale_vec")
            source, _ = compiled.plan_source("scale_vec")
            cuda = compiled.to_cuda().full_source()
            return cuda, compiled.to_source(), disassemble(plan), source.source

        expected = lowerings(CompilerDriver(CompileSession()).compile_source(GOOD_SOURCE, "u"))
        session = CompileSession(label="hammer")
        compiled = CompilerDriver(session).compile_source(GOOD_SOURCE, "u")
        results, errors = [], []

        def hammer():
            try:
                for _ in range(10):
                    results.append(lowerings(compiled))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert results == [expected] * 80
        total = sum(count for tiers in session.pass_counts.values() for count in tiers.values())
        assert total == session.hits + session.misses == len(session.timings)
        stats = session.stats()
        assert (stats["plans"], stats["plan_sources"], stats["cuda_modules"]) == (1, 1, 1)
        assert stats["plan_compiles"] >= 1 and stats["plan_source_compiles"] >= 1


class TestFacadeSurface:
    def test_api_compile_source_does_not_warn(self):
        from repro.descend import api

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            api.compile_source(GOOD_SOURCE, "facade.descend")
        assert not [w for w in caught if issubclass(w.category, DeprecationWarning)]

    def test_package_exports_the_supported_surface(self):
        import repro.descend as descend

        assert descend.DescendClient is DescendClient
        assert descend.LocalBackend is LocalBackend
        assert descend.Request is Request
        assert descend.Response is Response
        assert descend.api.API_VERSION == API_VERSION
        for name in ("api", "DescendClient", "LocalBackend", "Request", "Response"):
            assert name in descend.__all__
        with pytest.raises(AttributeError):
            descend.no_such_symbol

    def test_request_wire_roundtrip(self):
        request = Request(
            op="plan", source="fn f() {}", fun="f", options={"no_opt": True}, id="r1"
        )
        assert Request.from_wire(request.to_wire()) == request

    def test_response_wire_roundtrip(self):
        response = Response(
            op="compile",
            status="ok",
            id="r2",
            artifacts={"cuda": "// x"},
            diagnostics=("warning: y",),
            pass_tiers={"parse": {"memory": 1}},
        )
        assert Response.from_wire(json.loads(encode_frame(response.to_wire()))) == response
