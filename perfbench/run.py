"""The repository benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload compile|cli|serve|fig8 --seed N \\
        --seconds S --trace 0|1

Run it from anywhere inside a checkout; it works on the ``src/`` tree next
to it and writes only under ``.perfbench_tmp/`` (removed at the end) and
``.perfbench_out/`` (span dumps of traced runs).

A run makes a fixed number of operations sized to S seconds of a 2-core
machine, so counts repeat exactly for one seed.  ``--trace 0`` measures the
workload untraced and reports every end-to-end metric: the same four on
every workload, each about the workload's operation (a compiled program, a
CLI child, a daemon request or a Figure 8 pass).  ``--trace 1`` first
repeats that untraced run in a child process, then runs the same seed and
length again with wrappers installed on every layer's entry points (:mod:`perfbench.tracing`; the daemon and the CLI
children start through :mod:`perfbench.launcher`), and reports per-layer
self times and counts plus the tracing overhead (traced minus untraced, per
end-to-end metric).  The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"<name>": {"value": <number>, "unit": "<unit>"}, ...}}

A wrong output counts as a failed operation.  End-to-end times and rates,
``setup_s`` included, are scaled to a reference host speed sampled
alongside the work (:class:`perfbench.common.HostSpeed`).
Workloads, metrics and the layer each metric should move are described in
``perfbench/DESIGN.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.common import Context, median, pin  # noqa: E402
from perfbench.metrics import END_TO_END, OPERATIONS, PER_LAYER, WORKLOADS  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def run_workload(name: str, ctx: Context):
    """Import the workload and run it; with a tracer, wrappers go in first."""
    started = time.perf_counter()
    uninstall = None
    if ctx.tracer is not None:
        from perfbench.tracing import install

        uninstall = install(ctx.tracer)
    try:
        module = importlib.import_module(f"perfbench.{name}")
        result = module.run(ctx, started)
    finally:
        if uninstall is not None:
            uninstall()
    return module, result


def end_to_end(result) -> dict:
    return {metric: (result.metrics[metric], unit) for metric, (unit, _) in END_TO_END.items()}


def untraced_child(args) -> dict:
    """The untraced run of ``--trace 1``, in a fresh interpreter."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
    ]
    child = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError(f"untraced run failed ({child.returncode}): {child.stderr[-1000:]}")
    return json.loads(lines[-1])


def layer_metrics(name: str, tracer, result) -> dict:
    """Every declared per-layer metric from the traced run's spans."""
    by_name = defaultdict(float)      # self ms per span name (process prefix kept)
    by_engine = defaultdict(float)    # self ms per (base name, engine)
    imports = []
    backend_ms = 0.0
    for span in tracer.spans:
        process, _, base = span.name.rpartition(":")
        self_ms = span.self_ns / 1e6
        by_name[base] += self_ms
        if span.engine:
            by_engine[(base, span.engine)] += self_ms
        if span.name == "cli:cli.import":
            imports.append(span.ns / 1e6)
        if span.name == "serve:api.handle" and str(span.request).startswith("r"):
            backend_ms += span.ns / 1e6
    counts = tracer.settled_counts()
    values = {metric: 0.0 for metric in PER_LAYER}
    for metric, span_name in (
        ("frontend.parse_ms", "frontend.parse"), ("typeck.check_ms", "typeck.check"),
        ("plan.lower_ms", "plan.lower"), ("plan.optimize_ms", "plan.optimize"),
        ("plan.codegen_ms", "plan.codegen"), ("codegen.cuda_ms", "codegen.cuda"),
        ("store.open_ms", "store.open"), ("store.load_ms", "store.load"),
        ("store.put_ms", "store.put"), ("store.index_update_ms", "store.index_update"),
        ("interp.launch_ms", "interp.launch"),
    ):
        values[metric] = by_name[span_name]
    for metric in ("typeck.rejected", "plan.ir_ops", "plan.src_lines", "store.writes",
                   "store.errors", "interp.fallbacks", "gpusim.launches", "gpusim.accesses",
                   "gpusim.sim_cycles"):
        values[metric] = float(counts[metric])
    values["store.index_bytes"] = float(tracer.maxima.get("store.index_bytes", 0))
    passes = {tier: counts[f"driver.{tier}"] for tier in ("compute", "memory", "store")}
    values["driver.compute_passes"] = float(passes["compute"])
    values["driver.memory_hits"] = float(passes["memory"])
    values["driver.store_hits"] = float(passes["store"])
    total = sum(passes.values())
    values["driver.hit_ratio"] = (passes["memory"] + passes["store"]) / total if total else 0.0
    for engine in ("jit", "vectorized"):
        run_ms = by_engine[("gpusim.run", engine)]
        values[f"gpusim.run_ms.{engine}"] = run_ms
        values[f"gpusim.cost_ms.{engine}"] = by_engine[("gpusim.cost", engine)]
        values[f"gpusim.races_ms.{engine}"] = by_engine[("gpusim.races", engine)]
        accesses = counts[f"gpusim.accesses.{engine}"]
        values[f"gpusim.ns_per_access.{engine}"] = run_ms * 1e6 / accesses if accesses else 0.0
    if name == "cli" and imports:
        values["cli.import_ms"] = median(imports)
    if name == "serve":
        values["serve.backend_ms"] = backend_ms
        values["serve.wait_ms"] = result.layer["serve.client_ms"] - backend_ms
        values["client.retries"] = float(counts["client.attempts"] - counts["client.requests"])
    for metric, value in result.layer.items():
        if metric in values:
            values[metric] = float(value)
    values["error_rate"] = result.failed / result.attempted if result.attempted else 0.0
    return values


def write_trace(tracer, path: str) -> None:
    """The traced run's spans in Chrome trace-event format (Perfetto opens it)."""
    events = []
    for index, span in enumerate(tracer.spans):
        process, _, base = span.name.rpartition(":")
        events.append({
            "name": base, "ph": "X", "ts": span.start / 1e3, "dur": span.ns / 1e3,
            "pid": process or "bench", "tid": 0,
            "args": {"id": index, "parent": span.parent, "request": span.request,
                     "engine": span.engine, "self_us": span.self_ns / 1e3},
        })
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events}, handle)


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for metric, entry in metrics.items():
        print(f"  {metric:<38} {entry['value']:>14.4f} {entry['unit']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"error: no Descend source tree at {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    tmp = os.path.join(".perfbench_tmp", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(tmp)
    os.environ["TMPDIR"] = os.path.abspath(tmp)
    tempfile.tempdir = None
    try:
        # The untraced child starts before this process pins itself, so it
        # sees every CPU and pins itself the same way.
        untraced = untraced_child(args) if args.trace else None
        pin(0, 0)
        tracer = None
        if args.trace:
            from perfbench.tracing import Tracer

            tracer = Tracer()
        ctx = Context(root=ROOT, seed=args.seed, seconds=args.seconds, tmp=tmp,
                      tracer=tracer, python=sys.executable)
        module, result = run_workload(args.workload, ctx)
        e2e = end_to_end(result)
        if tracer is None:
            metrics = {metric: {"value": value, "unit": unit} for metric, (value, unit) in e2e.items()}
        else:
            missing = tracer.missing(module.DECLARED)
            if missing:
                print(f"error: declared wrappers never fired: {', '.join(missing)}", file=sys.stderr)
                return 1
            values = layer_metrics(args.workload, tracer, result)
            for metric, (value, _) in e2e.items():
                values[f"overhead.{metric}"] = value - untraced["metrics"][metric]["value"]
            metrics = {metric: {"value": values[metric], "unit": unit}
                       for metric, (unit, _) in PER_LAYER.items()}
            write_trace(tracer, os.path.join(".perfbench_out", f"{args.workload}-seed{args.seed}.trace.json"))
            print_table(f"untraced {args.workload} (seed {args.seed}):", untraced["metrics"])
        error_rate = result.failed / result.attempted if result.attempted else 1.0
        print_table(f"{args.workload} (seed {args.seed}, trace {args.trace}; op = {OPERATIONS[args.workload]}):",
                    metrics)
        if result.speed is not None:
            print(f"  host speed: {len(result.speed.samples)} samples, median"
                  f" {median(result.speed.samples) * 1e3:.4f} ms; times scaled by {result.speed.scale():.4f}")
        print(f"  {'error_rate':<38} {error_rate:>14.4f} ratio"
              f" ({result.failed} of {result.attempted} operations failed)")
        for problem in result.problems:
            print(f"  FAILED: {problem}")
        correct = result.failed == 0 and result.attempted > 0 and (untraced is None or untraced["correct"])
        print(json.dumps({
            "correct": correct, "attempted": result.attempted, "failed": result.failed, "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(".perfbench_tmp")
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
