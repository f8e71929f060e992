"""Engine benchmark: reference vs vectorized on the Figure 8 workloads.

Running ``descendc bench`` executes every selected Figure 8 workload
twice — once per execution engine — and reports

* the simulated kernel cycles of both engines (they must be *identical*;
  a mismatch aborts with :class:`BenchmarkError`, which is the regression
  gate CI relies on), and
* the wall-clock time of running the simulator itself, plus the resulting
  speedup of the vectorized engine.

Two variants are covered: the handwritten CUDA-lite kernels (the default)
and, with ``--descend``, the Descend programs executed through the
device-plan compiler (:mod:`repro.descend.plan`).  The Descend variant additionally
sweeps workload *scales* (``--scales 1 4``) to record the interpreter's
scaling headroom, and runs a third column — the ``jit`` engine, which
executes the generated straight-line source of the
``lower.plan.codegen`` pass — under the same exact-parity oracle; its
report is written to ``BENCH_descend_engine.json``.  Every engine run
goes through :func:`~repro.benchsuite.runner.run_variant`, which also
rejects a wrong result, a data race, or a launch that ran on another
engine.

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

#: Sizes benchmarked by default and by the CI smoke job (``--quick``).
DEFAULT_SIZES = ("small", "medium")
QUICK_SIZES = ("small",)
#: Scales swept by the Descend engine benchmark (and its ``--quick`` subset).
DESCEND_SCALES = (1, 4, 8)
QUICK_DESCEND_SCALES = (1,)
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
QUICK_DESCEND_ROWS = (("small", 1),)

#: Conservative upper estimate of the reference interpreter's wall-clock per
#: simulated cycle (the checked-in trajectory measures 130–300 µs/cycle).
#: The budget guard multiplies it by the row's cycle count — which both
#: engines share exactly — so the skip decision is deterministic and
#: identical between serial and parallel sweeps.
REF_SECONDS_PER_CYCLE = 3e-4
#: Default per-row budget (seconds) for the reference-engine column of the
#: Descend sweep; override with ``--budget``.
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
    #: Measured for the Descend variant only; ``None`` elsewhere.
    jit_cycles: Optional[float] = None
    jit_wall_s: Optional[float] = None
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
    def jit_cycles_match(self) -> Optional[bool]:
        if self.jit_cycles is None:
            return None
        return self.jit_cycles == self.vectorized_cycles

    @property
    def speedup(self) -> Optional[float]:
        if self.reference_wall_s is None:
            return None
        if self.vectorized_wall_s == 0:
            return float("inf")
        return self.reference_wall_s / self.vectorized_wall_s

    @property
    def jit_speedup(self) -> Optional[float]:
        """The jit engine's speedup over the *vectorized* engine."""
        if self.jit_wall_s is None:
            return None
        if self.jit_wall_s == 0:
            return float("inf")
        return self.vectorized_wall_s / self.jit_wall_s

    def as_dict(self) -> Dict[str, object]:
        return {
            "benchmark": self.benchmark,
            "size": self.size,
            "variant": self.variant,
            "scale": self.scale,
            "reference_cycles": self.reference_cycles,
            "vectorized_cycles": self.vectorized_cycles,
            "jit_cycles": self.jit_cycles,
            "cycles_match": self.cycles_match,
            "jit_cycles_match": self.jit_cycles_match,
            "reference_wall_s": self.reference_wall_s,
            "vectorized_wall_s": self.vectorized_wall_s,
            "jit_wall_s": self.jit_wall_s,
            "speedup": json_number(self.speedup),
            "jit_speedup": json_number(self.jit_speedup),
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
            jit_cycles=payload.get("jit_cycles"),  # type: ignore[arg-type]
            jit_wall_s=payload.get("jit_wall_s"),  # type: ignore[arg-type]
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
        return all(row.cycles_match for row in self.measured_rows) and all(
            row.jit_cycles_match in (None, True) for row in self.rows
        )

    @property
    def geometric_mean_speedup(self) -> float:
        speedups = [row.speedup for row in self.measured_rows if row.speedup > 0]
        if not speedups:
            return float("nan")
        return math.exp(sum(math.log(s) for s in speedups) / len(speedups))

    @property
    def geometric_mean_jit_speedup(self) -> float:
        """Geomean of the jit engine's speedup over the vectorized engine.

        Budget-skipped rows still count: the jit column never depends on the
        reference run, and the biggest rows are exactly where it matters.
        """
        speedups = [
            row.jit_speedup
            for row in self.rows
            if row.jit_speedup is not None and row.jit_speedup > 0
        ]
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
            "geometric_mean_jit_speedup": json_number(self.geometric_mean_jit_speedup),
            "min_speedup": json_number(self.min_speedup),
            "skipped_rows": sum(1 for row in self.rows if row.skipped is not None),
            "compile_passes": self.compile_passes,
        }

    def to_table(self) -> str:
        has_jit = any(row.jit_wall_s is not None for row in self.rows)
        table = format_table(
            ["variant", "benchmark", "size", "scale", "footprint", "cycles", "parity",
             "ref wall", "vec wall", "speedup"]
            + (["jit wall", "jit x"] if has_jit else []),
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
                + (
                    (
                        f"{row.jit_wall_s * 1e3:.1f} ms" if row.jit_wall_s is not None else "—",
                        f"{row.jit_speedup:.1f}x" if row.jit_speedup is not None else "—",
                    )
                    if has_jit
                    else ()
                )
                for row in self.rows
            ],
        )
        summary = (
            table
            + f"\n\ngeometric mean speedup: {self.geometric_mean_speedup:.1f}x"
            + f" (min {self.min_speedup:.1f}x); cycle parity: "
            + ("exact for every workload" if self.all_cycles_match else "VIOLATED")
        )
        if has_jit:
            summary += (
                f"\ngeometric mean jit speedup over vectorized: "
                f"{self.geometric_mean_jit_speedup:.1f}x"
            )
        return summary


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
    jit = None
    if variant == "descend":
        # The jit column never depends on the reference run, so it is
        # measured even on budget-skipped rows — the biggest rows are
        # exactly where codegen pays off.
        jit = run_variant(variant, workload_, data, reference, "jit", repeats)
        if jit.cycles != vec.cycles:
            raise BenchmarkError(
                f"cycle-count parity violated for {workload_.label} ({variant}): "
                f"jit={jit.cycles} vectorized={vec.cycles}"
            )
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
        jit_cycles=jit.cycles if jit is not None else None,
        jit_wall_s=jit.wall_s if jit is not None else None,
        host=host_label(),
    )
    if ref is not None and not row.cycles_match:
        raise BenchmarkError(
            f"cycle-count parity violated for {workload_.label} ({variant}): "
            f"reference={ref.cycles} vectorized={vec.cycles}"
        )
    engine_runs = 1 + (jit is not None) + (ref is not None)
    _emulate_device_wait(vec.cycles, engine_runs, device_s_per_cycle)
    return row


def _emulate_device_wait(
    cycles: float, engine_runs: int, device_s_per_cycle: Optional[float]
) -> None:
    """Model the wall-clock of a device executing the measured kernels."""
    if device_s_per_cycle is not None and device_s_per_cycle > 0:
        time.sleep(cycles * engine_runs * device_s_per_cycle)


def _run_sweep(
    variant: str,
    specs: Sequence[Tuple[str, str, Optional[int]]],
    kind: str,
    repeats: int,
    budget_s: Optional[float],
    jobs: int,
    store_path: Optional[str],
    progress,
) -> EngineBenchResult:
    """Run a sweep's cells serially or across ``jobs`` worker processes.

    The serial path is the default and the parity oracle; the parallel path
    (:func:`repro.benchsuite.dispatch.dispatch_cells`) merges the workers'
    rows back into sweep order, so both produce identical reports modulo
    the timing fields.
    """
    result = EngineBenchResult(kind=kind)
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


def run_engine_bench(
    benchmarks: Sequence[str] = BENCHMARKS,
    sizes: Sequence[str] = DEFAULT_SIZES,
    repeats: int = 1,
    progress=None,
    scale: Optional[int] = None,
    jobs: int = 1,
    store_path: Optional[str] = None,
) -> EngineBenchResult:
    """Benchmark every selected workload on both engines (CUDA-lite kernels)."""
    specs = [(benchmark, size, scale) for benchmark in benchmarks for size in sizes]
    return _run_sweep(
        "cudalite", specs, "engine-bench", repeats, None, jobs, store_path, progress
    )


def run_descend_engine_bench(
    benchmarks: Sequence[str] = DESCEND_BENCHMARKS,
    sizes: Optional[Sequence[str]] = None,
    scales: Optional[Sequence[int]] = None,
    rows: Optional[Sequence[Tuple[str, int]]] = None,
    repeats: int = 1,
    progress=None,
    budget_s: Optional[float] = None,
    jobs: int = 1,
    store_path: Optional[str] = None,
) -> EngineBenchResult:
    """Benchmark the Descend programs on both engines across workload scales.

    This is the perf trajectory for the interpreter's device-plan backend:
    cycle parity is asserted per workload, and the wall-clock columns record
    how far the workload scale can be pushed now that the sweep is vectorized
    and workloads compile once per sweep.  The sweep is a list of
    ``(size, scale)`` rows: pass ``rows`` directly, or ``sizes`` / ``scales``
    to take their cartesian product; the default is :data:`DESCEND_ROWS`.

    ``budget_s`` (default: :data:`DEFAULT_REF_BUDGET_S`) caps the per-row
    reference-engine wall-clock; over-budget rows keep their vectorized
    column and record ``"skipped": "budget"``.  ``jobs > 1`` dispatches the
    rows to worker processes, each warming from the shared artifact store
    at ``store_path`` (a directory or a store URL) if one is given.
    """
    if rows is None:
        if sizes is None and scales is None:
            rows = DESCEND_ROWS
        else:
            rows = tuple(
                (size, scale)
                for scale in (scales if scales is not None else DESCEND_SCALES)
                for size in (sizes if sizes is not None else QUICK_SIZES)
            )
    if budget_s is None:
        budget_s = DEFAULT_REF_BUDGET_S
    specs = [
        (benchmark, size, scale)
        for size, scale in rows
        for benchmark in benchmarks
    ]
    return _run_sweep(
        "descend", specs, "descend-engine-bench", repeats, budget_s, jobs,
        store_path, progress,
    )
