"""Load benchmark of the compile-service daemon: ``descendc bench --serve``.

The daemon's value proposition is amortization: one hot, store-attached
compile session serving a fleet of short-lived clients, so that only the
*first* compile of a program anywhere on the machine pays the compute
passes.  This benchmark quantifies that with two phases against the same
persistent artifact store:

* **cold** — a fresh store and a fresh daemon session: the first request
  per program runs the full pipeline, every repeat is a memory-tier hit;
* **warm** — a *new* daemon process-equivalent (fresh session, same store):
  every program is answered from the store tier; the phase fails with
  :class:`~repro.errors.BenchmarkError` if the daemon's session ran a
  ``compute``-tier pass — the zero-compute acceptance criterion.

Each phase drives the daemon over its real unix socket with concurrent
:class:`~repro.descend.api.DescendClient` threads cycling through the five
Figure 8 programs, and records throughput (requests/s) and latency
percentiles (p50/p99).  ``descendc bench --serve`` writes
``BENCH_serve_throughput.json`` (uploaded by the CI bench-smoke job).
"""

from __future__ import annotations

import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.benchsuite.compilebench import PROGRAMS
from repro.benchsuite.report import format_table, json_number
from repro.descend.api import DescendClient, LocalBackend, Response
from repro.descend.ast.printer import print_program
from repro.descend.serve import ServeConfig, ServerThread
from repro.errors import BenchmarkError

#: Per-phase request total (and its CI smoke shrink).
DEFAULT_REQUESTS = 200
QUICK_REQUESTS = 60
DEFAULT_CLIENTS = 4


@dataclass
class ServePhaseRow:
    """One phase of the load run: throughput, latency, pass-tier mix."""

    phase: str
    requests: int
    clients: int
    errors: int
    wall_s: float
    latencies_ms: List[float] = field(default_factory=list)
    #: ``{pass: {tier: count}}`` the daemon's session recorded during the
    #: phase.  A coalesced response repeats the tiers of the request it
    #: joined, so summing responses would count those passes twice.
    pass_tiers: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def rps(self) -> float:
        return self.requests / self.wall_s if self.wall_s > 0 else float("inf")

    def percentile_ms(self, fraction: float) -> float:
        if not self.latencies_ms:
            return float("nan")
        ordered = sorted(self.latencies_ms)
        index = min(len(ordered) - 1, int(fraction * len(ordered)))
        return ordered[index]

    @property
    def compute_passes(self) -> int:
        return sum(tiers.get("compute", 0) for tiers in self.pass_tiers.values())

    def as_dict(self) -> Dict[str, object]:
        return {
            "phase": self.phase,
            "requests": self.requests,
            "clients": self.clients,
            "errors": self.errors,
            "wall_s": self.wall_s,
            "rps": json_number(self.rps),
            "p50_ms": json_number(self.percentile_ms(0.50)),
            "p99_ms": json_number(self.percentile_ms(0.99)),
            "compute_passes": self.compute_passes,
            "pass_tiers": self.pass_tiers,
        }


@dataclass
class ServeBenchResult:
    rows: List[ServePhaseRow] = field(default_factory=list)
    kind: str = "serve-throughput-bench"

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "phases": [row.as_dict() for row in self.rows],
            "warm_compute_passes": sum(
                row.compute_passes for row in self.rows if row.phase == "warm"
            ),
        }

    def to_table(self) -> str:
        table = format_table(
            ["phase", "requests", "clients", "wall", "req/s", "p50", "p99", "compute passes"],
            [
                (
                    row.phase,
                    row.requests,
                    row.clients,
                    f"{row.wall_s:.2f} s",
                    f"{row.rps:.0f}",
                    f"{row.percentile_ms(0.50):.2f} ms",
                    f"{row.percentile_ms(0.99):.2f} ms",
                    row.compute_passes,
                )
                for row in self.rows
            ],
        )
        return table + "\n\nwarm phase answered every compile without a compute-tier pass"


def _phase_sources() -> List[Tuple[str, str]]:
    return [(name, print_program(build())) for name, build in PROGRAMS.items()]


def run_phase(
    phase: str,
    store_path: str,
    socket_path: str,
    requests: int,
    clients: int,
) -> ServePhaseRow:
    """Drive one daemon over its socket with ``clients`` concurrent threads.

    A fresh :class:`LocalBackend` per phase models a freshly started daemon
    process; sharing ``store_path`` across phases is what makes the second
    phase warm.
    """
    backend = LocalBackend(label=f"serve-{phase}")
    config = ServeConfig(socket_path=socket_path, store_path=store_path)
    sources = _phase_sources()
    row = ServePhaseRow(
        phase=phase, requests=requests, clients=clients, errors=0, wall_s=0.0
    )
    lock = threading.Lock()
    failures: List[str] = []

    def worker(worker_index: int) -> None:
        client = DescendClient(socket_path)
        latencies: List[float] = []
        responses: List[Response] = []
        try:
            with client:
                for i in range(worker_index, requests, clients):
                    name, text = sources[i % len(sources)]
                    start = time.perf_counter()
                    response = client.compile(source=text, name=f"{name}.descend")
                    latencies.append((time.perf_counter() - start) * 1e3)
                    responses.append(response)
        except Exception as exc:  # noqa: BLE001 - reported as a phase failure
            with lock:
                failures.append(f"client {worker_index}: {exc}")
            return
        with lock:
            row.latencies_ms.extend(latencies)
            for response in responses:
                if not response.ok:
                    row.errors += 1
                    failures.append(
                        f"client {worker_index}: {response.error_code}: "
                        f"{response.error_message}"
                    )

    with ServerThread(backend, config):
        with DescendClient(socket_path) as probe:
            if not probe.wait_until_ready():
                raise BenchmarkError(f"{phase}: daemon did not become ready")
        mark = backend.session.pass_counts_snapshot()
        started = time.perf_counter()
        threads = [
            threading.Thread(target=worker, args=(k,), name=f"serve-bench-{phase}-{k}")
            for k in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        row.wall_s = time.perf_counter() - started
        row.pass_tiers = backend.session.pass_counts_since(mark)
    if failures:
        raise BenchmarkError(f"{phase}: {failures[0]} ({len(failures)} failures)")
    if len(row.latencies_ms) != requests:
        raise BenchmarkError(
            f"{phase}: expected {requests} responses, got {len(row.latencies_ms)}"
        )
    return row


def run_serve_bench(
    requests: int = DEFAULT_REQUESTS,
    clients: int = DEFAULT_CLIENTS,
    progress=None,
) -> ServeBenchResult:
    result = ServeBenchResult()
    with tempfile.TemporaryDirectory(prefix="descend-servebench-") as tmp:
        store_path = f"{tmp}/store"
        for phase in ("cold", "warm"):
            if progress is not None:
                progress(
                    f"{phase}: {requests} requests over {clients} clients "
                    f"({len(PROGRAMS)} programs) ..."
                )
            row = run_phase(
                phase, store_path, f"{tmp}/{phase}.sock", requests, clients
            )
            if phase == "warm" and row.compute_passes:
                raise BenchmarkError(
                    f"warm daemon ran {row.compute_passes} compute-tier passes; "
                    f"expected all requests served from the artifact store "
                    f"(tiers: {row.pass_tiers})"
                )
            result.rows.append(row)
    return result
