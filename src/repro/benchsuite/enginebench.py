"""Engine benchmark: reference vs vectorized on the Figure 8 workloads.

Running ``descendc bench`` executes every selected workload twice — once
per execution engine — and reports

* the simulated kernel cycles of both engines (they must be *identical*;
  a mismatch aborts with :class:`BenchmarkError`, which is the regression
  gate CI relies on), and
* the wall-clock time of running the simulator itself, plus the resulting
  speedup of the vectorized engine.

Two variants run through the one sweep, :func:`run_engine_bench`: the
handwritten CUDA-lite kernels (the default) and, with ``--descend``, the
Descend programs executed through the device-plan compiler
(:mod:`repro.descend.plan`).  A sweep is a list of ``(size, scale)`` rows,
each run over the selected benchmarks, and the reference column of every
row is budget-guarded.  Every engine run goes through
:func:`~repro.benchsuite.runner.run_variant`, which also rejects a wrong
result, a data race, or a launch that ran on another engine.

The JSON reports (``BENCH_*.json``) are uploaded as CI artifacts by the
bench-smoke job so the speedup trajectory accumulates over time.
"""

from __future__ import annotations

import math
import os
import socket
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.benchsuite.report import format_bytes, format_table, json_number
from repro.benchsuite.runner import _reference_and_data, precompile_descend, run_variant
from repro.benchsuite.workloads import BENCHMARKS, scale_factor, workload
from repro.errors import BenchmarkError

#: The Descend engine sweep covers the Figure 8 benchmarks plus the
#: histogram and stencil workloads; the CUDA-lite sweep keeps the golden
#: :data:`BENCHMARKS` rows so the checked-in trajectory stays comparable.
DESCEND_BENCHMARKS = BENCHMARKS + ("histogram", "stencil")

#: The default ``(size, scale)`` rows of the Descend engine benchmark: the
#: small footprint across all scales (16 included), plus the medium and
#: large rows at scale 8.  The biggest rows are only feasible because the
#: reference-engine column is *budgeted*: rows whose (deterministic,
#: cycle-count-based) reference estimate exceeds the wall-clock budget
#: record ``"skipped": "budget"`` instead of blowing the CI time limit.
DESCEND_ROWS = (
    ("small", 1),
    ("small", 4),
    ("small", 8),
    ("small", 16),
    ("medium", 8),
    ("large", 8),
)
#: Each variant's default benchmarks and rows, and its report ``kind``.
DEFAULT_BENCHMARKS = {"cudalite": BENCHMARKS, "descend": DESCEND_BENCHMARKS}
DEFAULT_ROWS = {"cudalite": (("small", 1), ("medium", 1)), "descend": DESCEND_ROWS}
REPORT_KINDS = {"cudalite": "engine-bench", "descend": "descend-engine-bench"}
#: The CI smoke subset (``--quick``) of either variant.
QUICK_ROWS = (("small", 1),)

#: Conservative upper estimate of the reference interpreter's wall-clock per
#: simulated cycle (the checked-in trajectory measures 130–300 µs/cycle).
#: The budget guard multiplies it by the row's cycle count — which both
#: engines share exactly — so the skip decision is deterministic and
#: identical between serial and parallel sweeps.
REF_SECONDS_PER_CYCLE = 3e-4
#: Default per-row budget (seconds) for the reference-engine column;
#: override with ``--budget``.
DEFAULT_REF_BUDGET_S = 600.0


def estimate_reference_wall_s(cycles: float) -> float:
    """Deterministic upper estimate of a reference-engine run's wall-clock."""
    return cycles * REF_SECONDS_PER_CYCLE


@dataclass
class EngineBenchRow:
    """One workload, both engines.

    When the budget guard skips the reference-engine column, ``skipped``
    names the reason (``"budget"``) and every reference-derived field
    (``reference_cycles``, ``reference_wall_s``, ``cycles_match``,
    ``speedup``) is ``None``.
    """

    benchmark: str
    size: str
    reference_cycles: Optional[float]
    vectorized_cycles: float
    reference_wall_s: Optional[float]
    vectorized_wall_s: float
    footprint_bytes: int
    variant: str = "cudalite"
    scale: int = 1
    skipped: Optional[str] = None
    retries: int = 0
    #: Which process measured this row — ``hostname:pid``, stamped by
    #: :func:`compare_engines` so serial rows and rows from local or remote
    #: sweep workers are all attributable in the merged report.
    host: str = ""

    @property
    def cycles_match(self) -> Optional[bool]:
        if self.reference_cycles is None:
            return None
        return self.reference_cycles == self.vectorized_cycles

    @property
    def speedup(self) -> Optional[float]:
        if self.reference_wall_s is None:
            return None
        if self.vectorized_wall_s == 0:
            return float("inf")
        return self.reference_wall_s / self.vectorized_wall_s

    def as_dict(self) -> Dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "size": self.size,
            "variant": self.variant,
            "scale": self.scale,
            "reference_cycles": self.reference_cycles,
            "vectorized_cycles": self.vectorized_cycles,
            "cycles_match": self.cycles_match,
            "reference_wall_s": self.reference_wall_s,
            "vectorized_wall_s": self.vectorized_wall_s,
            "speedup": json_number(self.speedup),
            "footprint_bytes": self.footprint_bytes,
            "skipped": self.skipped,
            "retries": self.retries,
            "host": self.host,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "EngineBenchRow":
        """Rebuild a row from :meth:`as_dict` output (dispatch wire format).

        Only constructor fields are read — the derived columns
        (``cycles_match``, ``speedup``, …) are recomputed by their
        properties, so a round-tripped row is value-identical to the
        original (JSON floats round-trip exactly via ``repr``).
        """
        return cls(
            benchmark=str(payload["benchmark"]),
            size=str(payload["size"]),
            reference_cycles=payload.get("reference_cycles"),  # type: ignore[arg-type]
            vectorized_cycles=payload["vectorized_cycles"],  # type: ignore[arg-type]
            reference_wall_s=payload.get("reference_wall_s"),  # type: ignore[arg-type]
            vectorized_wall_s=payload["vectorized_wall_s"],  # type: ignore[arg-type]
            footprint_bytes=int(payload["footprint_bytes"]),  # type: ignore[arg-type]
            variant=str(payload.get("variant", "cudalite")),
            scale=int(payload.get("scale", 1)),  # type: ignore[arg-type]
            skipped=payload.get("skipped"),  # type: ignore[arg-type]
            retries=int(payload.get("retries", 0)),  # type: ignore[arg-type]
            host=str(payload.get("host", "")),
        )


@dataclass
class EngineBenchResult:
    """All benchmarked workloads plus the aggregates CI tracks.

    ``compile_passes`` aggregates the sweep's compiler activity as
    ``{pass name: {cache tier: count}}`` across every worker (or the serial
    session): a warm-store sweep must show ``lower.plan`` with only
    ``store``/``memory`` tiers — zero ``compute`` — which is the
    cross-process plan-reuse gate.
    """

    rows: List[EngineBenchRow] = field(default_factory=list)
    compile_passes: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def measured_rows(self) -> List[EngineBenchRow]:
        """Rows whose reference column actually ran (not budget-skipped)."""
        return [row for row in self.rows if row.skipped is None]

    @property
    def all_cycles_match(self) -> bool:
        return all(row.cycles_match for row in self.measured_rows)

    @property
    def geometric_mean_speedup(self) -> float:
        speedups = [row.speedup for row in self.measured_rows if row.speedup > 0]
        if not speedups:
            return float("nan")
        return math.exp(sum(math.log(s) for s in speedups) / len(speedups))

    @property
    def min_speedup(self) -> float:
        speedups = [row.speedup for row in self.measured_rows]
        if not speedups:
            return float("nan")
        return min(speedups)

    kind: str = "engine-bench"

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "workloads": [row.as_dict() for row in self.rows],
            "all_cycles_match": self.all_cycles_match,
            "geometric_mean_speedup": json_number(self.geometric_mean_speedup),
            "min_speedup": json_number(self.min_speedup),
            "skipped_rows": sum(1 for row in self.rows if row.skipped is not None),
            "compile_passes": self.compile_passes,
        }

    def to_table(self) -> str:
        table = format_table(
            ["variant", "benchmark", "size", "scale", "footprint", "cycles", "parity",
             "ref wall", "vec wall", "speedup"],
            [
                (
                    row.variant,
                    row.benchmark,
                    row.size,
                    row.scale,
                    format_bytes(row.footprint_bytes),
                    round(row.vectorized_cycles, 1),
                    ("==" if row.cycles_match else "MISMATCH")
                    if row.skipped is None
                    else f"skip:{row.skipped}",
                    f"{row.reference_wall_s * 1e3:.1f} ms" if row.skipped is None else "—",
                    f"{row.vectorized_wall_s * 1e3:.1f} ms",
                    f"{row.speedup:.1f}x" if row.skipped is None else "—",
                )
                for row in self.rows
            ],
        )
        return (
            table
            + f"\n\ngeometric mean speedup: {self.geometric_mean_speedup:.1f}x"
            + f" (min {self.min_speedup:.1f}x); cycle parity: "
            + ("exact for every workload" if self.all_cycles_match else "VIOLATED")
        )


def host_label() -> str:
    """This process's row-attribution label (``hostname:pid``)."""
    return f"{socket.gethostname()}:{os.getpid()}"


def compare_engines(
    benchmark: str,
    size: str,
    repeats: int = 1,
    variant: str = "cudalite",
    scale: Optional[int] = None,
    budget_s: Optional[float] = None,
    device_s_per_cycle: Optional[float] = None,
) -> EngineBenchRow:
    """Run one workload on both engines and check cycle-count parity.

    ``variant`` selects the implementation under test: ``"cudalite"`` (the
    handwritten kernels) or ``"descend"`` (the Descend programs through the
    interpreter, vectorized via the device-plan compiler).

    ``budget_s`` bounds the reference-engine column: the vectorized engine
    runs first (it shares the exact cycle count), and if the deterministic
    estimate :func:`estimate_reference_wall_s` exceeds the budget the
    reference run is skipped and the row records ``skipped="budget"``.

    ``device_s_per_cycle`` emulates waiting on a device executing the
    measured kernels in real time (the simulator counts cycles instead of
    occupying a GPU): after measuring, the call sleeps ``cycles x engines
    run x this factor``.  The sleep happens *outside* the timed regions, so
    every row column is identical with or without it — it only stretches
    the caller's wall-clock, which is what the sweep-scaling benchmark
    dispatches across workers.  ``None`` (the default) disables it.
    """
    workload_ = workload(benchmark, size, scale=scale)
    data, reference = _reference_and_data(workload_)
    if variant == "descend":
        # Warm the compile cache outside the timed regions so both engines
        # measure pure execution: without this the first timed run would pay
        # the cold typeck (or warm it from the attached artifact store) that
        # later runs then get from the cache.
        precompile_descend(benchmark, workload_.params)
    vec = run_variant(variant, workload_, data, reference, "vectorized", repeats)
    ref = None
    if budget_s is None or estimate_reference_wall_s(vec.cycles) <= budget_s:
        ref = run_variant(variant, workload_, data, reference, "reference", repeats)
    row = EngineBenchRow(
        benchmark=benchmark,
        size=size,
        reference_cycles=ref.cycles if ref is not None else None,
        vectorized_cycles=vec.cycles,
        reference_wall_s=ref.wall_s if ref is not None else None,
        vectorized_wall_s=vec.wall_s,
        footprint_bytes=workload_.footprint_bytes(),
        variant=variant,
        scale=scale_factor(scale),
        skipped="budget" if ref is None else None,
        host=host_label(),
    )
    if ref is not None and not row.cycles_match:
        raise BenchmarkError(
            f"cycle-count parity violated for {workload_.label} ({variant}): "
            f"reference={ref.cycles} vectorized={vec.cycles}"
        )
    if device_s_per_cycle is not None and device_s_per_cycle > 0:
        engine_runs = 1 + (ref is not None)
        time.sleep(vec.cycles * engine_runs * device_s_per_cycle)
    return row


def run_engine_bench(
    variant: str,
    benchmarks: Optional[Sequence[str]] = None,
    rows: Optional[Sequence[Tuple[str, int]]] = None,
    repeats: int = 1,
    budget_s: Optional[float] = None,
    jobs: int = 1,
    store_path: Optional[str] = None,
    progress=None,
) -> EngineBenchResult:
    """Benchmark ``variant``'s workloads on both engines, row by row.

    The sweep is a list of ``(size, scale)`` rows, each run over every one
    of ``benchmarks``; both default to the variant's
    (:data:`DEFAULT_BENCHMARKS`, :data:`DEFAULT_ROWS`).  Cycle parity is
    asserted per workload.  ``budget_s`` (default:
    :data:`DEFAULT_REF_BUDGET_S`) caps the per-row reference-engine
    wall-clock; over-budget rows keep their vectorized column and record
    ``"skipped": "budget"``.

    The serial path is the default and the parity oracle.  ``jobs > 1``
    dispatches the rows to worker processes
    (:func:`repro.benchsuite.dispatch.dispatch_cells`), each warming from
    the shared artifact store at ``store_path`` (a directory or a store URL)
    if one is given, and merges their rows back into sweep order, so both
    paths produce identical reports modulo the timing fields.
    """
    benchmarks = benchmarks or DEFAULT_BENCHMARKS[variant]
    rows = rows or DEFAULT_ROWS[variant]
    if budget_s is None:
        budget_s = DEFAULT_REF_BUDGET_S
    specs = [(benchmark, size, scale) for size, scale in rows for benchmark in benchmarks]
    result = EngineBenchResult(kind=REPORT_KINDS[variant])
    if jobs > 1:
        from repro.benchsuite.dispatch import dispatch_cells, make_cells

        if progress is not None:
            progress(f"dispatching {len(specs)} sweep cells to {jobs} workers ...")
        result.rows.extend(
            dispatch_cells(
                make_cells(variant, specs, repeats=repeats, budget_s=budget_s),
                jobs, store_path=store_path, progress=progress,
                pass_totals=result.compile_passes,
            )
        )
        return result

    def run_serial() -> None:
        from repro.benchsuite.dispatch import merge_pass_totals
        from repro.descend.driver import active_session

        session = active_session()
        mark = session.pass_counts_snapshot()
        for benchmark, size, scale in specs:
            if progress is not None:
                progress(
                    f"benchmarking {variant} {benchmark}/{size} at scale "
                    f"{scale_factor(scale)} on both engines ..."
                )
            result.rows.append(
                compare_engines(
                    benchmark, size, repeats=repeats, variant=variant, scale=scale,
                    budget_s=budget_s,
                )
            )
        merge_pass_totals(result.compile_passes, session.pass_counts_since(mark))

    if store_path:
        # A serial sweep with an explicit store runs in its own scoped
        # session bound to exactly that store — never a best-effort mutation
        # of the process-global session, which may already carry a different
        # store (and would otherwise keep ours attached after the sweep).
        from repro.descend.driver import CompileSession, session_scope
        from repro.descend.store import ArtifactStore

        try:
            store = ArtifactStore(store_path)
        except OSError as exc:
            raise BenchmarkError(
                f"cannot open artifact store {store_path!r}: {exc}"
            ) from exc
        with session_scope(CompileSession(label="sweep").attach_store(store)):
            run_serial()
    else:
        run_serial()
    return result
