"""The serve workload: a ``descendc serve`` daemon under a closed loop.

The daemon runs in its own process with a fresh store.  One benchmark
process drives it through 2 ``DescendClient`` connections; each client
sends its next request when the previous reply arrives, as a ``make -j2``
build calling ``descendc client`` would.  Requests are a seeded mix of
check, compile, plan and plan-jit: 85 % go to a hot set of 24 programs
warmed in set-up (the warm path), 15 % to never-seen programs (the novel
share grows the store, and every put rewrites the whole ``index.json``).
This is the only workload that exercises the daemon's socket, queue and
executor path.

Oracle: every response equals an in-process ``LocalBackend`` answer to the
same request, computed after the timed region; ``internal-error``,
``overloaded``, ``retries-exhausted`` and ``deadline-exceeded`` never match.
"""

from __future__ import annotations

import random
import threading
import time

from perfbench.common import SETUP_REPEATS, Child, Context, HostSpeed, Result, median, percentile, pin
from perfbench.inputs import SERVE_HOT_BASE, SERVE_NOVEL_BASE, fuzz_programs, iter_fuzz_programs

#: Wrappers that must fire: the client's in this process, the rest in the
#: daemon (the oracle runs untraced).
DECLARED = ("client.handle", "client.connect") + tuple(f"serve:{key}" for key in (
    "api.handle", "frontend.parse", "typeck.check", "plan.lower", "plan.optimize",
    "plan.codegen", "codegen.cuda", "driver.record", "store.open", "store.load",
    "store.put", "store.index_update",
))

CLIENTS = 2
#: The daemon and the load generator run on separate cores (when there are
#: two): unpinned, the same seed's request rate varied by 12 % between runs as
#: the scheduler moved the daemon's loop and executor threads around.
DAEMON_CPU, CLIENT_CPU = 0, 1
HOT_PROGRAMS = 24
HOT_SHARE = 0.85
OPS = (("check", {}), ("compile", {}), ("plan", {}), ("plan", {"jit": True}))

#: Requests per measured second (150-250 req/s on a 2-core machine);
#: fixed per run length, so each run grows the store by the same amount.
REQUESTS_PER_S = 210

#: Pauses of the timed loop for host-speed samples, and samples per CPU
#: in each pause.
SEGMENTS = 20
SAMPLES_PER_CPU = 4


def _request(op, options, program, request_id):
    from repro.descend.api import Request

    return Request(op=op, source=program.text, name=program.name, options=options, id=request_id)


class Daemon:
    """One ``descendc serve`` child with a fresh store and socket."""

    def __init__(self, ctx: Context, tag: str) -> None:
        from repro.descend.api import DescendClient

        self.ctx = ctx
        self.socket = ctx.path(f"{tag}.sock")
        self.spans = ctx.path(f"{tag}.spans.json")
        status = ctx.path(f"{tag}.status")
        command = ctx.cli_command(
            ["serve", "--socket", self.socket, "--store", ctx.path(f"{tag}-store")], status, self.spans
        )
        self.child = Child(command, ctx, ctx.path(f"{tag}.log"), status)
        pin(self.child.proc.pid, DAEMON_CPU)
        probe = DescendClient(self.socket, timeout=60.0)
        try:
            if not probe.wait_until_ready(timeout=60.0):
                self.stop()
                raise RuntimeError(f"daemon did not come up: {self.child.output()[-500:]}")
        finally:
            probe.close()

    def client(self):
        from repro.descend.api import DescendClient

        return DescendClient(self.socket, timeout=60.0).connect()

    def stats(self):
        with self.client() as client:
            return client.ping().artifacts

    def stop(self) -> int:
        """Shut down (callers close their connections first) and reap."""
        from repro.descend.api import DescendClient, ProtocolError

        if self.child.poll() is None:
            try:
                with DescendClient(self.socket, timeout=30.0) as client:
                    client.shutdown()
            except (OSError, ProtocolError):
                self.child.proc.terminate()
        return self.child.wait(timeout=60.0)


def _warm(daemon: Daemon, hot, result: Result) -> None:
    with daemon.client() as client:
        for index, program in enumerate(hot):
            for op, options in OPS:
                response = client.handle(_request(op, options, program, f"w{index}-{op}"))
                if not response.ok:
                    result.fail(f"warm-up {op} {program.name}: {response.error}")


def _schedule(seed: int, count: int, hot):
    """``count`` requests in a seeded order: exactly the hot share goes to
    the hot set, the rest each to a new program, and every op takes an
    equal share of both.  With a random draw per request, the number of
    novel requests (so of store writes, whose index rewrites are most of
    the daemon's time) varied with the seed, and the request rate with it."""
    rng = random.Random(f"perfbench:serve:{seed}")
    novel_count = round(count * (1 - HOT_SHARE))
    slots = [(True, OPS[i % len(OPS)]) for i in range(count - novel_count)]
    slots += [(False, OPS[i % len(OPS)]) for i in range(novel_count)]
    rng.shuffle(slots)
    novel = iter_fuzz_programs(seed, SERVE_NOVEL_BASE)
    return [(op, options, rng.choice(hot) if is_hot else next(novel)) for is_hot, (op, options) in slots]


def _sample_speed(speed: HostSpeed) -> None:
    """Host-speed samples on the daemon's CPU and on the clients', taken by
    this thread while no request is in flight."""
    for cpu in (DAEMON_CPU, CLIENT_CPU):
        pin(0, cpu)
        speed.sample(SAMPLES_PER_CPU)
    pin(0, CLIENT_CPU)


def _drive(daemon: Daemon, schedule, speed: HostSpeed):
    """The timed closed loop: CLIENTS connections share a request cursor;
    each sends its next request when its previous reply has arrived.  The
    loop pauses SEGMENTS times for host-speed samples; pauses are not timed."""
    count = len(schedule)
    latencies = [0.0] * count
    responses = [None] * count
    lock = threading.Lock()
    errors = []

    def drive(client, cursor) -> None:
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                op, options, program = schedule[index]
                request = _request(op, options, program, f"r{index}")
                start = time.perf_counter()
                responses[index] = client.handle(request)
                latencies[index] = time.perf_counter() - start
        except Exception as exc:  # noqa: BLE001 - reported as a failed run
            errors.append(repr(exc))

    clients = [daemon.client() for _ in range(CLIENTS)]
    elapsed = 0.0
    try:
        for segment in range(SEGMENTS):
            cursor = iter(range(segment * count // SEGMENTS, (segment + 1) * count // SEGMENTS))
            threads = [threading.Thread(target=drive, args=(client, cursor)) for client in clients]
            begin = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed += time.perf_counter() - begin
            _sample_speed(speed)
    finally:
        # Idle connections open at shutdown make the daemon log a
        # CancelledError traceback, so they close first.
        for client in clients:
            client.close()
    return latencies, responses, elapsed, errors


def run(ctx: Context, started: float) -> Result:
    from repro.descend.api import LocalBackend, ProtocolError

    result = Result()
    pin(0, CLIENT_CPU)
    hot = fuzz_programs(ctx.seed, SERVE_HOT_BASE, HOT_PROGRAMS, well_typed=True)
    imports_s = time.perf_counter() - started
    setups = []
    daemon = None
    speed = HostSpeed("mixed")
    try:
        for repeat in range(SETUP_REPEATS):
            begin = time.perf_counter()
            daemon = Daemon(ctx, f"d{repeat}")
            _warm(daemon, hot, result)
            setups.append(time.perf_counter() - begin)
            if repeat < SETUP_REPEATS - 1:
                daemon.stop()
        count = REQUESTS_PER_S * ctx.seconds
        schedule = _schedule(ctx.seed, count, hot)
        latencies, responses, elapsed, errors = _drive(daemon, schedule, speed)
        try:
            stats = daemon.stats()
        except (OSError, ProtocolError) as exc:
            stats = {}
            result.fail(f"daemon stats: {exc!r}")
    finally:
        if daemon is not None and daemon.child.returncode is None:
            daemon.stop()
    if daemon.child.returncode != 0:
        result.fail(f"daemon exited {daemon.child.returncode}: {daemon.child.output()[-500:]}")
    elif not daemon.child.peak_rss_mb:
        result.fail("the daemon wrote no status")
    if ctx.tracer is not None and not ctx.tracer.merge_file(daemon.spans, "serve"):
        result.fail("the daemon wrote no spans")
    for message in errors:
        result.fail(f"client thread died: {message}")

    oracle = LocalBackend(label="oracle")
    expected = {}
    for index, (op, options, program) in enumerate(schedule):
        result.attempted += 1
        response = responses[index]
        key = (op, tuple(sorted(options.items())), program.name)
        if key not in expected:
            with ctx.untraced():
                expected[key] = oracle.handle(_request(op, options, program, None))
        want = expected[key]
        if response is None:
            result.fail(f"r{index}: no response")
        elif response.status != want.status or response.artifacts != want.artifacts or (
            not want.ok and (response.error_code, response.diagnostics) != (want.error_code, want.diagnostics)
        ):
            result.fail(f"r{index} {op} {program.name}: {response.error or 'artifacts differ'}")

    done = [latencies[i] for i in range(count) if responses[i] is not None]
    third = max(1, count // 3)
    scale = speed.scale()
    result.metrics["setup_s"] = (imports_s + median(setups)) * scale
    result.metrics["op_p50_ms"] = median(done) * 1e3 * scale
    result.metrics["ops_per_s"] = len(done) / elapsed / scale
    result.metrics["peak_rss_mb"] = daemon.child.peak_rss_mb
    result.speed = speed
    result.layer["serve.p99_ms"] = percentile(done, 99) * 1e3 * scale
    result.layer["serve.client_ms"] = sum(done) * 1e3
    result.layer["serve.coalesced"] = float(stats.get("coalesced", 0))
    result.layer["serve.p50_ms.first_third"] = median(latencies[:third]) * 1e3
    result.layer["serve.p50_ms.last_third"] = median(latencies[-third:]) * 1e3
    return result
