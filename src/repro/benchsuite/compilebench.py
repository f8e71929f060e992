"""Compile-time benchmark: the staged driver's pass timings, cold vs cached.

The paper's claim is that Descend's safety is free at *runtime*; its cost is
paid at *compile* time, in the extended borrow checking.  PR 1–2 made
execution fast, which makes compilation the hot path of benchsuite sweeps
and test suites.  This benchmark records where that time goes and what the
session cache buys:

* every Figure 8 Descend program is pretty-printed to surface syntax and
  compiled from text through the staged :class:`~repro.descend.driver.CompilerDriver`
  — parse, typeck, and the lowerings (device plans for every GPU function,
  the CUDA C++ module) each timed individually;
* a **cold** run uses a fresh :class:`~repro.descend.driver.CompileSession`
  with all memoization caches (nat, typeck) dropped;
* a **cached** run repeats the identical compile in the same session and
  must hit the content-addressed cache for every pass;
* diagnostics and generated CUDA are digested (sha256) in both runs — a
  digest mismatch aborts: the cache must be semantically invisible;
* device plans are data-driven IR and serialize: every row records the
  pickled size of the program's plans (``plan_bytes``) and the wall-clock
  of deserializing them back (``plan_deserialize_s``) — the cost a warm
  process pays instead of the ``lower.plan`` re-lowering it used to run.

``python -m repro.cli bench --compile`` writes ``BENCH_compile_time.json``
(uploaded by the CI bench-smoke job), extending the repo's BENCH_*.json
trajectory to compile time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import pickle
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.benchsuite.report import format_table
from repro.descend.ast.printer import print_program
from repro.descend.driver import (
    PASS_LOWER_CUDA,
    PASS_LOWER_PLAN,
    PASS_PARSE,
    PASS_TYPECK,
    CompilerDriver,
    CompileSession,
)
from repro.descend.nat import clear_nat_caches
from repro.descend.typeck import clear_typeck_caches
from repro.descend_programs.matmul import build_matmul_program
from repro.descend_programs.reduce import build_reduce_program
from repro.descend_programs.scan import build_scan_program
from repro.descend_programs.transpose import build_transpose_program
from repro.descend_programs.vector import build_scale_program
from repro.errors import BenchmarkError

#: The five Figure 8 Descend programs at their benchmark parameters.
PROGRAMS: Dict[str, Callable] = {
    "scale_vec": lambda: build_scale_program(n=1024, block_size=64),
    "reduce": lambda: build_reduce_program(n=4096, block_size=64),
    "transpose": lambda: build_transpose_program(n=64, tile=16, rows=4),
    "scan": lambda: build_scan_program(n=2048, block_size=32, elems_per_thread=4),
    "matmul": lambda: build_matmul_program(m=32, k=32, n=32, tile=8),
}


@dataclass
class CompileBenchRow:
    """One program: per-pass wall-clock, cold vs cached."""

    program: str
    cold_pass_s: Dict[str, float]
    cached_pass_s: Dict[str, float]
    diagnostics_digest: str
    cuda_digest: str
    #: Pickled size of every device plan of the program (the bytes a warm
    #: store ships to a worker) and the wall-clock of loading them back.
    plan_bytes: int = 0
    plan_deserialize_s: float = 0.0

    @property
    def cold_total_s(self) -> float:
        return sum(self.cold_pass_s.values())

    @property
    def cached_total_s(self) -> float:
        return sum(self.cached_pass_s.values())

    @property
    def speedup(self) -> float:
        if self.cached_total_s == 0:
            return float("inf")
        return self.cold_total_s / self.cached_total_s

    def as_dict(self) -> Dict[str, object]:
        return {
            "program": self.program,
            "cold_pass_s": self.cold_pass_s,
            "cached_pass_s": self.cached_pass_s,
            "cold_total_s": self.cold_total_s,
            "cached_total_s": self.cached_total_s,
            "speedup": self.speedup,
            "diagnostics_digest": self.diagnostics_digest,
            "cuda_digest": self.cuda_digest,
            "plan_bytes": self.plan_bytes,
            "plan_deserialize_s": self.plan_deserialize_s,
        }


@dataclass
class CompileBenchResult:
    """All programs plus the aggregates the trajectory tracks."""

    rows: List[CompileBenchRow] = field(default_factory=list)
    kind: str = "compile-time-bench"
    #: Generated-source launch micro-benchmark (see :func:`bench_dispatch`).
    dispatch_micro: Dict[str, object] = field(default_factory=dict)

    @property
    def geometric_mean_speedup(self) -> float:
        finite = [row.speedup for row in self.rows if 0 < row.speedup < float("inf")]
        if not finite:
            return float("inf") if self.rows else float("nan")
        return math.exp(sum(math.log(s) for s in finite) / len(finite))

    @property
    def min_speedup(self) -> float:
        if not self.rows:
            return float("nan")
        return min(row.speedup for row in self.rows)

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "kind": self.kind,
            "programs": [row.as_dict() for row in self.rows],
            "geometric_mean_speedup": self.geometric_mean_speedup,
            "min_speedup": self.min_speedup,
            "total_plan_bytes": sum(row.plan_bytes for row in self.rows),
        }
        if self.dispatch_micro:
            payload["dispatch_micro"] = dict(self.dispatch_micro)
        return payload

    def to_table(self) -> str:
        table = format_table(
            ["program", "parse", "typeck", "lower", "cold total", "cached total",
             "speedup", "plan bytes", "plan deser"],
            [
                (
                    row.program,
                    f"{row.cold_pass_s.get(PASS_PARSE, 0.0) * 1e3:.2f} ms",
                    f"{row.cold_pass_s.get(PASS_TYPECK, 0.0) * 1e3:.2f} ms",
                    f"{(row.cold_pass_s.get(PASS_LOWER_PLAN, 0.0) + row.cold_pass_s.get(PASS_LOWER_CUDA, 0.0)) * 1e3:.2f} ms",
                    f"{row.cold_total_s * 1e3:.2f} ms",
                    f"{row.cached_total_s * 1e3:.3f} ms",
                    f"{row.speedup:.0f}x",
                    row.plan_bytes,
                    f"{row.plan_deserialize_s * 1e3:.3f} ms",
                )
                for row in self.rows
            ],
        )
        text = (
            table
            + f"\n\ngeometric mean cached-compile speedup: {self.geometric_mean_speedup:.0f}x"
            + f" (min {self.min_speedup:.0f}x); diagnostics and CUDA byte-identical cold vs cached"
        )
        if self.dispatch_micro:
            text += (
                f"\nplan-source dispatch micro ({self.dispatch_micro.get('program', '?')}):"
                f" {self.dispatch_micro.get('wall_s', 0.0) * 1e3:.2f} ms/launch best of"
                f" {int(self.dispatch_micro.get('repeats', 0))}"
            )
        return text


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _diagnostics_digest(compiled) -> str:
    return _digest(compiled.checked.diagnostics.render_all(compiled.source))


def _timed_pipeline(
    driver: CompilerDriver, name: str, text: str
) -> Dict[str, object]:
    """Run the full pipeline once; per-pass wall-clock plus artifact digests."""
    session = driver.session
    mark = len(session.timings)
    compiled = driver.compile_source(text, name=f"{name}.descend")
    for fun_name in compiled.gpu_function_names():
        compiled.device_plan(fun_name)
    cuda = compiled.to_cuda()
    passes: Dict[str, float] = {}
    for timing in session.timings[mark:]:
        passes[timing.name] = passes.get(timing.name, 0.0) + timing.wall_s
    return {
        "passes": passes,
        "diagnostics": _diagnostics_digest(compiled),
        "cuda": cuda.fingerprint(),
    }


def bench_program(name: str, repeats: int = 3) -> CompileBenchRow:
    """Benchmark cold and cached compiles of one Figure 8 program.

    ``repeats`` takes the best-of-N for both variants; each cold repeat
    drops every memoization layer (session, nat caches, typeck caches) and
    uses a fresh session with *no* persistent artifact store attached, so
    the cold number is a true from-scratch compile even when the CLI runs
    with ``--store``.
    """
    text = print_program(PROGRAMS[name]())

    cold_best: Optional[Dict[str, object]] = None
    cold_total = float("inf")
    for _ in range(max(1, repeats)):
        clear_nat_caches()
        clear_typeck_caches()
        session = CompileSession(label=f"cold:{name}")
        run = _timed_pipeline(CompilerDriver(session), name, text)
        total = sum(run["passes"].values())
        if total < cold_total:
            cold_total, cold_best = total, run

    # Cached repeats reuse one warm session seeded by a discarded first run.
    session = CompileSession(label=f"cached:{name}")
    driver = CompilerDriver(session)
    _timed_pipeline(driver, name, text)
    cached_best: Optional[Dict[str, object]] = None
    cached_total = float("inf")
    for _ in range(max(1, repeats)):
        run = _timed_pipeline(driver, name, text)
        total = sum(run["passes"].values())
        if total < cached_total:
            cached_total, cached_best = total, run

    assert cold_best is not None and cached_best is not None
    if cold_best["diagnostics"] != cached_best["diagnostics"]:
        raise BenchmarkError(
            f"{name}: diagnostics differ between cold and cached compiles"
        )
    if cold_best["cuda"] != cached_best["cuda"]:
        raise BenchmarkError(
            f"{name}: generated CUDA differs between cold and cached compiles"
        )
    plan_bytes, plan_deserialize_s = _measure_plan_serialization(driver, name, text, repeats)
    return CompileBenchRow(
        program=name,
        cold_pass_s=dict(cold_best["passes"]),
        cached_pass_s=dict(cached_best["passes"]),
        diagnostics_digest=str(cold_best["diagnostics"]),
        cuda_digest=str(cold_best["cuda"]),
        plan_bytes=plan_bytes,
        plan_deserialize_s=plan_deserialize_s,
    )


def _measure_plan_serialization(
    driver: CompilerDriver, name: str, text: str, repeats: int
):
    """Pickled size of the program's device plans + best-of-N reload time.

    This is the warm-start trajectory the serializable plan IR buys: a warm
    process pays one ``pickle.loads`` per plan instead of re-running the
    ``lower.plan`` pass, and the blob sizes bound what the artifact store
    (and the CI cache) carries per program.
    """
    compiled = driver.compile_source(text, name=f"{name}.descend")
    blobs = []
    for fun_name in compiled.gpu_function_names():
        plan, _reason = compiled.device_plan(fun_name)
        if plan is not None:
            blobs.append(pickle.dumps(plan, protocol=4))
    plan_bytes = sum(len(blob) for blob in blobs)
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        for blob in blobs:
            pickle.loads(blob)
        best = min(best, time.perf_counter() - start)
    return plan_bytes, (best if blobs else 0.0)


def bench_dispatch(repeats: int = 3) -> Dict[str, object]:
    """Micro-benchmark one launch of a plan's generated source.

    Launches the matmul workload — the most op-dense Figure 8 program (its
    inner product runs a ``for-nat`` body per tile element) — on the
    vectorized engine with race detection off and a warm plan-source cache,
    so the wall-clock concentrates on the generated code's slot traffic and
    runtime-helper calls plus the cost accounting every launch shares.  The
    report keeps the historical ``dispatch_micro`` field name.
    """
    import numpy as np

    from repro.descend.api import compile_program
    from repro.gpusim.device import GpuDevice

    program = PROGRAMS["matmul"]()
    compiled = compile_program(program)
    fun = compiled.gpu_function_names()[0]
    compiled.plan_source(fun)  # warm: the timed region measures execution only
    params = {p.name: p for p in program.fun(fun).params}
    m = k = n = 32  # matches the PROGRAMS matmul parameters
    best = float("inf")
    for _ in range(max(1, repeats)):
        device = GpuDevice(detect_races=False)
        buffers = {
            "a": device.to_device(np.ones((m, k)), label="a"),
            "b": device.to_device(np.ones((k, n)), label="b"),
            "c": device.malloc((m, n), dtype=np.float64, label="c"),
        }
        assert set(buffers) == set(params), sorted(params)
        kernel = compiled.kernel(fun)
        start = time.perf_counter()
        kernel.launch(device, buffers, execution_mode="vectorized")
        best = min(best, time.perf_counter() - start)
    return {"program": "matmul", "wall_s": best, "repeats": float(max(1, repeats))}


def run_compile_bench(
    programs: Sequence[str] = tuple(PROGRAMS),
    repeats: int = 3,
    progress=None,
) -> CompileBenchResult:
    result = CompileBenchResult()
    for name in programs:
        if name not in PROGRAMS:
            raise BenchmarkError(
                f"unknown program {name!r}; expected one of {tuple(PROGRAMS)}"
            )
        if progress is not None:
            progress(f"compiling {name} (cold + cached, best of {repeats}) ...")
        result.rows.append(bench_program(name, repeats=repeats))
    if progress is not None:
        progress("plan-source dispatch micro-benchmark ...")
    result.dispatch_micro = bench_dispatch(repeats=repeats)
    return result


def write_report(result: CompileBenchResult, path: str, quick: bool = False) -> Dict[str, object]:
    """Write the JSON report CI uploads as a bench-smoke artifact."""
    payload = dict(result.as_dict())
    payload["quick"] = quick
    payload["created_unix"] = time.time()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return payload


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark compile time (staged driver passes, cold vs cached)"
    )
    parser.add_argument(
        "--programs", nargs="*", default=list(PROGRAMS), choices=list(PROGRAMS)
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--quick", action="store_true", help="single repeat (CI smoke)")
    parser.add_argument("--output", default="BENCH_compile_time.json")
    parser.add_argument("--json", action="store_true", help="print the JSON payload to stdout")
    args = parser.parse_args(argv)

    repeats = 1 if args.quick else args.repeats
    progress = lambda msg: print(msg, file=sys.stderr)  # noqa: E731
    try:
        result = run_compile_bench(programs=args.programs, repeats=repeats, progress=progress)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        payload = write_report(result, args.output, quick=args.quick)
    except OSError as exc:
        print(f"error: cannot write report to {args.output!r}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(result.to_table())
    print(f"wrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
