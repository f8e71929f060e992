"""Parallel bench sweeps: pull-based work stealing over TCP.

A benchsuite sweep is a list of independent cells — one ``(variant,
benchmark, size, scale)`` workload measured on both bench engines.
Serial execution (:mod:`repro.benchsuite.enginebench`) is the default and
the parity oracle; ``descendc bench --jobs N`` runs the same cells through
this module.  A :class:`SweepCoordinator` listens on a TCP port and hands
cells to any worker that connects — the ``N`` subprocesses
:func:`dispatch_cells` spawns, or remote ones joined by hand via
``descendc sweep-worker --connect HOST:PORT``.  All workers warm from one
shared artifact store (``--store``: a directory, or a daemon's HTTP store
endpoint for workers on other machines), so one worker does not
re-typecheck what another already compiled.

Design points:

* **Pull, don't shard.**  Workers *request* the next cell when idle
  (``{"op": "next"}``) instead of receiving a static slice up front —
  work stealing by construction, so a slow host finishes fewer cells
  instead of straggling the whole sweep.
* **Same rows, same order.**  Frames are the newline-delimited key-sorted
  JSON of API schema v1 (:func:`repro.descend.api.encode_frame`), and rows
  travel as their :meth:`~repro.benchsuite.enginebench.EngineBenchRow.as_dict`
  payload, rebuilt with :meth:`~repro.benchsuite.enginebench.EngineBenchRow.from_dict`
  — constructor fields only — and merged in sweep order, so the report is
  value-identical to the serial one except for the timing, ``host`` and
  ``retries`` columns.
* **Retry, then fail loud.**  Every assignment carries the cell's attempt
  count as its fault ``epoch``; the worker installs it in
  ``REPRO_FAULTS_EPOCH`` before measuring, so "fail on the first attempt,
  heal on the retry" chaos plans are deterministic.  A cell that fails —
  an error reported as data, or a worker dying mid-cell (connection EOF
  with an assignment outstanding) — is requeued, up to
  :data:`DEFAULT_MAX_ATTEMPTS` tries; a surviving row records its failed
  tries in ``retries``.  A cell that fails every attempt aborts the sweep
  with a :class:`BenchmarkError` naming the cell — never a hang.
* **Cold workers, respawned.**  Local workers start as fresh
  ``python -m repro.cli sweep-worker`` interpreters, so the warm-from-store
  path is the one exercised and callers need no ``__main__`` guard.  A
  worker that exits early is respawned (bounded by the retry budget) one
  fault epoch past the worker it replaces.
* **Fault seams.**  ``sweep.spawn`` fires in worker start-up,
  ``sweep.cell`` around each measurement, and ``sweep.dispatch`` on the
  coordinator's assignment path, where an injected failure drops the
  worker's connection with the cell assigned — the requeue path a killed
  worker takes.

Wire protocol (worker → coordinator, then the reply):

==========================  ================================================
``{"op": "hello", "host"}``  Join the sweep; answered ``{"op": "welcome"}``.
``{"op": "next"}``           Ask for work.  Answered ``{"op": "cell",
                             "cell": {...}, "epoch": N}`` (run it),
                             ``{"op": "wait", "delay_ms": D}`` (everything
                             is in flight — poll again), or
                             ``{"op": "done"}`` (sweep over, exit 0).
``{"op": "result", "index", "row"|null, "error"|null, "passes", "host"}``
                             The held cell, finished; no reply (the worker
                             sends ``next`` again).  A result for any other
                             index, or a ``next`` while holding a cell, drops
                             the connection.
==========================  ================================================
"""

from __future__ import annotations

import contextlib
import os
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro import faults
from repro.descend.api import ProtocolError, decode_frame, encode_frame
from repro.errors import BenchmarkError

__all__ = ["SweepCoordinator", "dispatch_cells", "make_cells", "run_worker"]

#: Hard cap on worker processes; sweeps have at most a few dozen cells.
MAX_JOBS = 32

#: Total tries per cell (1 first run + retries) before the sweep aborts.
DEFAULT_MAX_ATTEMPTS = 3

#: How long an idle worker sleeps when every pending cell is in flight.
IDLE_POLL_MS = 50

#: How often :func:`dispatch_cells` polls coordinator state and worker
#: process liveness.
SUPERVISE_POLL_S = 0.05


def make_cells(
    variant: str,
    specs: Sequence[tuple],
    repeats: int,
    budget_s: Optional[float],
    device_s_per_cycle: Optional[float] = None,
) -> List[Dict[str, object]]:
    """Cell dicts for ``specs`` of ``(benchmark, size, scale)`` triples.

    ``device_s_per_cycle`` threads the emulated device-execution wait of
    :func:`~repro.benchsuite.enginebench.compare_engines` through to the
    workers (the sweep-scaling benchmark's device-bound regime); the
    default leaves the cells pure measurement.
    """
    return [
        {
            "index": index,
            "variant": variant,
            "benchmark": benchmark,
            "size": size,
            "scale": scale,
            "repeats": repeats,
            "budget_s": budget_s,
            "device_s_per_cycle": device_s_per_cycle,
        }
        for index, (benchmark, size, scale) in enumerate(specs)
    ]


def merge_pass_totals(
    totals: Dict[str, Dict[str, int]], delta: Dict[str, Dict[str, int]]
) -> None:
    """Accumulate one cell's pass summary into the sweep-wide totals."""
    for name, tiers in delta.items():
        bucket = totals.setdefault(name, {})
        for tier, count in tiers.items():
            bucket[tier] = bucket.get(tier, 0) + count


def _cell_label(cell: Dict[str, object]) -> str:
    return (
        f"{cell['variant']}:{cell['benchmark']}/{cell['size']} (scale {cell['scale']})"
    )


class SweepCoordinator:
    """Feeds bench cells to pulling workers; merges rows in sweep order.

    Thread model: one accept thread plus one thread per connected worker.
    All sweep state (pending cells, in-flight assignments, attempt counts,
    merged rows) lives behind one lock; the per-worker threads only block
    on their own sockets.
    """

    def __init__(
        self,
        cells: Sequence[Dict[str, object]],
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        progress=None,
        pass_totals: Optional[Dict[str, Dict[str, int]]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.max_attempts = max_attempts
        self._progress = progress
        self._pass_totals = pass_totals
        self._bind = (host, port)
        self._lock = threading.Lock()
        self._pending: Dict[int, Dict[str, object]] = {
            int(cell["index"]): cell for cell in cells  # type: ignore[arg-type]
        }
        self._assigned: Dict[int, str] = {}  # index -> worker label
        self._attempts: Dict[int, int] = {index: 0 for index in self._pending}
        self._rows: Dict[int, object] = {}
        self._total = len(self._pending)
        self._fatal: Optional[str] = None
        self._finished = threading.Event()
        if not self._pending:
            self._finished.set()
        self._server: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._worker_threads: List[threading.Thread] = []
        self.workers_seen = 0

    # -- lifecycle --------------------------------------------------------------
    def start(self) -> "SweepCoordinator":
        server = socket.create_server(self._bind)
        server.settimeout(0.2)
        self._server = server
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="sweep-coordinator", daemon=True
        )
        self._accept_thread.start()
        return self

    @property
    def address(self) -> Tuple[str, int]:
        assert self._server is not None, "coordinator not started"
        bound = self._server.getsockname()
        return bound[0], bound[1]

    def close(self) -> None:
        self._finished.set()
        if self._server is not None:
            with contextlib.suppress(OSError):
                self._server.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)
        for thread in self._worker_threads:
            thread.join(timeout=2.0)

    def __enter__(self) -> "SweepCoordinator":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.close()

    @property
    def finished(self) -> bool:
        return self._finished.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._finished.wait(timeout)

    def result(self) -> List[object]:
        """The merged rows in sweep order; raises on a failed sweep."""
        if self._fatal is not None:
            raise BenchmarkError(self._fatal)
        if len(self._rows) != self._total:
            raise BenchmarkError(
                f"sweep dispatch ended with {self._total - len(self._rows)} of "
                f"{self._total} cells unmeasured"
            )
        return [self._rows[index] for index in sorted(self._rows)]

    # -- accept/serve loops -----------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._server is not None
        while not self._finished.is_set():
            try:
                conn, _addr = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            thread = threading.Thread(
                target=self._serve_worker, args=(conn,), daemon=True
            )
            thread.start()
            self._worker_threads.append(thread)

    def _serve_worker(self, conn: socket.socket) -> None:
        label = "worker-?"
        current: Optional[int] = None  # the cell index this worker holds
        try:
            with conn, conn.makefile("rb") as reader:
                while True:
                    line = reader.readline()
                    if not line:
                        break
                    try:
                        frame = decode_frame(line)
                    except ProtocolError:
                        break
                    op = frame.get("op")
                    if op == "hello":
                        label = str(frame.get("host") or label)
                        with self._lock:
                            self.workers_seen += 1
                        conn.sendall(encode_frame({"op": "welcome"}))
                    # A connection holds at most one cell: asking for another,
                    # or reporting any index but the held one, drops it, and
                    # the finally block requeues the held cell as a failed
                    # attempt.
                    elif op == "next":
                        if current is not None:
                            break
                        reply, current = self._assign(label)
                        if reply is None:
                            # Injected dispatch fault: drop the connection
                            # with the cell assigned — the worker sees EOF,
                            # the requeue path sees a dead worker.
                            break
                        conn.sendall(encode_frame(reply))
                        if reply["op"] == "done":
                            break
                    elif op == "result":
                        if current is None or frame.get("index") != current:
                            break
                        self._record(current, frame, label)
                        current = None
                    else:
                        break
        except (OSError, ValueError):
            pass
        finally:
            with contextlib.suppress(OSError):
                conn.close()
            if current is not None:
                self._cell_failed(current, f"worker {label} connection lost mid-cell")

    def _assign(self, label: str) -> Tuple[Optional[Dict[str, object]], Optional[int]]:
        """The next reply for an idle worker: a cell, a wait, or done.

        Returns ``(None, index)`` when the ``sweep.dispatch`` fault seam
        fires — the caller drops the connection with ``index`` assigned.
        """
        with self._lock:
            if self._fatal is not None or self._finished.is_set():
                return {"op": "done"}, None
            available = [
                index for index in sorted(self._pending) if index not in self._assigned
            ]
            if not available:
                if not self._pending:
                    return {"op": "done"}, None
                return {"op": "wait", "delay_ms": IDLE_POLL_MS}, None
            index = available[0]
            self._assigned[index] = label
            epoch = self._attempts[index]
            cell = self._pending[index]
        rule = faults.check("sweep.dispatch")
        if rule is not None:
            return None, index
        return {"op": "cell", "cell": cell, "epoch": epoch}, index

    def _record(self, index: int, frame: Dict[str, object], label: str) -> None:
        from repro.benchsuite.enginebench import EngineBenchRow

        error = frame.get("error")
        if error is not None:
            self._cell_failed(index, str(error))
            return
        row_payload = frame.get("row")
        if not isinstance(row_payload, dict):
            self._cell_failed(index, f"worker {label} sent a result without a row")
            return
        try:
            row = EngineBenchRow.from_dict(row_payload)
        except (KeyError, TypeError, ValueError) as exc:
            self._cell_failed(index, f"worker {label} sent an unusable row: {exc}")
            return
        with self._lock:
            if index not in self._pending:
                return  # duplicate result after a requeue race: first one won
            row.retries = self._attempts[index]
            self._rows[index] = row
            del self._pending[index]
            self._assigned.pop(index, None)
            passes = frame.get("passes")
            if self._pass_totals is not None and isinstance(passes, dict):
                merge_pass_totals(self._pass_totals, passes)
            done = not self._pending
            merged = len(self._rows)
        if self._progress is not None:
            self._progress(
                f"[{merged}/{self._total}] merged "
                f"{row.benchmark}/{row.size} (scale {row.scale}) from {row.host or label}"
            )
        if done:
            self._finished.set()

    def _cell_failed(self, index: int, error: str) -> None:
        with self._lock:
            cell = self._pending.get(index)
            if cell is None:
                return  # already measured by another worker
            self._assigned.pop(index, None)
            self._attempts[index] += 1
            attempts = self._attempts[index]
            if attempts >= self.max_attempts:
                self._fatal = (
                    f"sweep cell {_cell_label(cell)} failed in a worker "
                    f"after {attempts} attempt(s): {error}"
                )
                self._finished.set()
                return
        if self._progress is not None:
            self._progress(
                f"retrying {_cell_label(cell)} "
                f"(attempt {attempts + 1}/{self.max_attempts}): {error}"
            )


# -- the worker side -----------------------------------------------------------
def _worker_init(store_path: Optional[str]) -> None:
    """Worker start-up: a fresh session warmed by the shared store."""
    faults.maybe_raise("sweep.spawn")
    from repro.descend.driver import CompileSession, set_active_session

    session = CompileSession(label=f"sweep-worker-{os.getpid()}")
    if store_path:
        from repro.descend.store import ArtifactStore

        try:
            session.attach_store(ArtifactStore(store_path))
        except OSError:
            pass  # an unusable store only costs warmth, never the sweep
    set_active_session(session)


def _run_cell(cell: Dict[str, object]):
    """Measure one sweep cell; returns ``(row, error, passes)``.

    ``passes`` is the cell's compile-pass summary from the worker's session
    (:meth:`~repro.descend.driver.CompileSession.pass_counts_since`) — how
    the coordinator proves that warm-store workers deserialized plans
    instead of re-lowering them.
    """
    from repro.benchsuite.enginebench import compare_engines
    from repro.descend.driver import active_session

    session = active_session()
    mark = session.pass_counts_snapshot()
    try:
        faults.maybe_raise("sweep.cell")
        row = compare_engines(
            str(cell["benchmark"]),
            str(cell["size"]),
            repeats=int(cell["repeats"]),  # type: ignore[arg-type]
            variant=str(cell["variant"]),
            scale=cell["scale"],  # type: ignore[arg-type]
            budget_s=cell["budget_s"],  # type: ignore[arg-type]
            device_s_per_cycle=cell.get("device_s_per_cycle"),  # type: ignore[arg-type]
        )
        return row, None, session.pass_counts_since(mark)
    except Exception as exc:  # reported to the coordinator as data
        return None, f"{type(exc).__name__}: {exc}", None


def run_worker(
    address: Tuple[str, int],
    store_path: Optional[str] = None,
    timeout_s: float = 300.0,
) -> int:
    """Join a sweep coordinator and measure cells until it says ``done``.

    The worker installs a fresh store-warmed session (the ``sweep.spawn``
    seam; an :class:`OSError` there propagates as a start-up failure), then
    loops: pull, set the assignment's fault epoch, measure, report.
    Returns a process exit code: ``0`` after ``done``, ``1`` on a lost
    coordinator.
    """
    from repro.benchsuite.enginebench import host_label

    _worker_init(store_path)
    label = host_label()
    try:
        conn = socket.create_connection(address, timeout=timeout_s)
    except OSError as exc:
        print(f"sweep-worker: cannot reach coordinator {address}: {exc}", file=sys.stderr)
        return 1
    try:
        with conn, conn.makefile("rb") as reader:
            conn.sendall(encode_frame({"op": "hello", "host": label}))
            welcome = reader.readline()
            if not welcome:
                return 1
            while True:
                conn.sendall(encode_frame({"op": "next"}))
                line = reader.readline()
                if not line:
                    return 1
                reply = decode_frame(line)
                op = reply.get("op")
                if op == "done":
                    return 0
                if op == "wait":
                    delay = reply.get("delay_ms", IDLE_POLL_MS)
                    time.sleep(
                        max(0.0, float(delay)) / 1000.0  # type: ignore[arg-type]
                        if isinstance(delay, (int, float))
                        else IDLE_POLL_MS / 1000.0
                    )
                    continue
                if op != "cell":
                    return 1
                cell = reply.get("cell")
                if not isinstance(cell, dict):
                    return 1
                # The assignment's epoch is the cell's attempt count: chaos
                # plans keyed `epoch=0` fail the first try and heal on the
                # requeue.
                epoch = reply.get("epoch", 0)
                epoch_before = os.environ.get(faults.ENV_EPOCH)
                os.environ[faults.ENV_EPOCH] = str(
                    epoch if isinstance(epoch, int) else 0
                )
                try:
                    row, error, passes = _run_cell(cell)
                finally:
                    if epoch_before is None:
                        os.environ.pop(faults.ENV_EPOCH, None)
                    else:
                        os.environ[faults.ENV_EPOCH] = epoch_before
                conn.sendall(
                    encode_frame(
                        {
                            "op": "result",
                            "index": cell.get("index"),
                            "row": row.as_dict() if row is not None else None,
                            "error": error,
                            "passes": passes,
                            "host": label,
                        }
                    )
                )
    except (OSError, ProtocolError) as exc:
        print(f"sweep-worker: lost coordinator {address}: {exc}", file=sys.stderr)
        return 1


# -- the orchestrating entry point ---------------------------------------------
def _spawn_worker(
    address: Tuple[str, int], store_path: Optional[str], epoch: int
) -> subprocess.Popen:
    import repro

    command = [
        sys.executable,
        "-m",
        "repro.cli",
        "sweep-worker",
        "--connect",
        f"{address[0]}:{address[1]}",
    ]
    env = os.environ.copy()
    if store_path:
        command += ["--store", store_path]
    else:
        # A sweep without a store stays without one: the worker CLI would
        # otherwise fall back to REPRO_STORE.
        env.pop("REPRO_STORE", None)
    # Start-up faults key on this epoch: a slot's first worker runs at 0 and
    # each respawn one past the worker it replaces, so a `sweep.spawn` plan
    # scoped to `epoch=0` heals on the first respawn.
    env[faults.ENV_EPOCH] = str(epoch)
    # The spawned interpreter must resolve the same `repro` package this
    # process runs, regardless of the caller's cwd or a relative PYTHONPATH.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root if not existing else package_root + os.pathsep + existing
    )
    return subprocess.Popen(command, env=env)


def dispatch_cells(
    cells: Sequence[Dict[str, object]],
    jobs: int,
    store_path: Optional[str] = None,
    progress=None,
    pass_totals: Optional[Dict[str, Dict[str, int]]] = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> List[object]:
    """Run sweep cells through a coordinator plus ``jobs`` local workers.

    Each cell dict carries ``index``, ``variant``, ``benchmark``, ``size``,
    ``scale``, ``repeats`` and ``budget_s`` (see :func:`make_cells`).
    Returns the rows in sweep order; every worker attaches the artifact
    store at ``store_path`` (a directory or a store URL) when one is given,
    and when ``pass_totals`` is given their compile-pass summaries are
    merged into it (the ``compile_passes`` field of the bench report).
    Externally connected ``descendc sweep-worker`` processes steal work
    alongside the local ones.  Dead workers are respawned (bounded by the
    retry budget) and their in-flight cells requeued with an advanced
    fault epoch; a cell that fails ``max_attempts`` times raises
    :class:`BenchmarkError`.
    """
    jobs = max(1, min(int(jobs), MAX_JOBS, len(cells) or 1))
    coordinator = SweepCoordinator(
        cells,
        max_attempts=max_attempts,
        progress=progress,
        pass_totals=pass_totals,
    )
    coordinator.start()
    workers: List[subprocess.Popen] = []
    epochs = [0] * jobs
    # A worker that exits nonzero before the sweep is over gets replaced,
    # but only so many times: every legitimate respawn consumes one retry
    # of some cell, so the attempt budget bounds the respawn budget too.
    respawn_budget = coordinator.max_attempts * max(1, len(cells))
    try:
        workers = [
            _spawn_worker(coordinator.address, store_path, epoch) for epoch in epochs
        ]
        while not coordinator.wait(SUPERVISE_POLL_S):
            for slot, proc in enumerate(workers):
                code = proc.poll()
                if code is None or coordinator.finished:
                    continue
                if respawn_budget <= 0:
                    continue  # let the attempt bound produce the loud failure
                respawn_budget -= 1
                if progress is not None:
                    progress(f"sweep worker exited with code {code}; respawning")
                epochs[slot] += 1
                workers[slot] = _spawn_worker(
                    coordinator.address, store_path, epochs[slot]
                )
            if (
                respawn_budget <= 0
                and not coordinator.finished
                and all(proc.poll() is not None for proc in workers)
            ):
                # Workers that keep dying before ever holding a cell never
                # advance an attempt counter; fail loudly instead of waiting
                # for a completion that cannot come.
                raise BenchmarkError(
                    "every sweep worker exited and the respawn budget is spent; "
                    "check the workers' stderr (store unreachable?)"
                )
        return coordinator.result()
    finally:
        coordinator.close()
        for proc in workers:
            if proc.poll() is None:
                with contextlib.suppress(OSError):
                    proc.terminate()
        for proc in workers:
            with contextlib.suppress(Exception):
                proc.wait(timeout=5.0)
