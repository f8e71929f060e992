"""Every metric the benchmark reports, with its unit and direction.

``BENCHMARK.json`` at the repository root lists the same names; the
benchmark's own test keeps the two in step.
"""

from __future__ import annotations

WORKLOADS = ("compile", "cli", "serve", "fig8")

#: What one operation is on each workload.  Every workload reports every
#: end-to-end metric, so the metrics are named for the operation, not for
#: the workload.
OPERATIONS = {
    "compile": "one program through check, compile, plan and plan-jit in-process",
    "cli": "one descendc compile child (cold and warm alternate)",
    "serve": "one request answered by the daemon",
    "fig8": "one pass over every cell: Descend on jit and vectorized, CUDA-lite",
}

#: End-to-end metrics: name -> (unit, better).  Every workload reports all
#: of them, from untraced runs only.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Figure 8 cells: (program, footprint scale).  Matmul runs at scale 4
#: instead of 8 because its vectorized cell alone takes >10 s at 8.
FIG8_PROGRAMS = ("reduce", "transpose", "scan", "matmul", "histogram", "stencil")
FIG8_CELLS = tuple(
    (program, scale)
    for program in FIG8_PROGRAMS
    for scale in ((1, 4) if program == "matmul" else (1, 8))
)
DESCEND_ENGINES = ("jit", "vectorized")


def cell_name(program: str, scale: int) -> str:
    return f"{program}-s{scale}"


def _per_layer():
    rows = [
        ("frontend.parse_ms", "ms", "lower"),
        ("typeck.check_ms", "ms", "lower"),
        ("typeck.rejected", "count", "lower"),
        ("plan.lower_ms", "ms", "lower"),
        ("plan.optimize_ms", "ms", "lower"),
        ("plan.codegen_ms", "ms", "lower"),
        ("plan.ir_ops", "count", "lower"),
        ("plan.src_lines", "count", "lower"),
        ("codegen.cuda_ms", "ms", "lower"),
        ("driver.compute_passes", "count", "lower"),
        ("driver.memory_hits", "count", "higher"),
        ("driver.store_hits", "count", "higher"),
        ("driver.hit_ratio", "ratio", "higher"),
        ("store.open_ms", "ms", "lower"),
        ("store.load_ms", "ms", "lower"),
        ("store.put_ms", "ms", "lower"),
        ("store.index_update_ms", "ms", "lower"),
        ("store.index_bytes", "bytes", "lower"),
        ("store.writes", "count", "lower"),
        ("store.errors", "count", "lower"),
        ("compile.p99_ms", "ms", "lower"),
        ("cli.cold_ms", "ms", "lower"),
        ("cli.warm_ms", "ms", "lower"),
        ("cli.python_start_ms", "ms", "lower"),
        ("cli.import_ms", "ms", "lower"),
        ("serve.backend_ms", "ms", "lower"),
        ("serve.wait_ms", "ms", "lower"),
        ("serve.coalesced", "count", "higher"),
        ("client.retries", "count", "lower"),
        ("serve.p99_ms", "ms", "lower"),
        ("serve.p50_ms.first_third", "ms", "lower"),
        ("serve.p50_ms.last_third", "ms", "lower"),
        ("interp.launch_ms", "ms", "lower"),
        ("interp.fallbacks", "count", "lower"),
    ]
    for engine in DESCEND_ENGINES:
        rows += [
            (f"gpusim.run_ms.{engine}", "ms", "lower"),
            (f"gpusim.cost_ms.{engine}", "ms", "lower"),
            (f"gpusim.races_ms.{engine}", "ms", "lower"),
            (f"gpusim.ns_per_access.{engine}", "ns", "lower"),
        ]
    rows += [
        ("gpusim.launches", "count", "lower"),
        ("gpusim.accesses", "count", "lower"),
        ("gpusim.sim_cycles", "cycles", "lower"),
    ]
    rows += [(f"fig8.{side}_s", "s", "lower") for side in DESCEND_ENGINES + ("cudalite",)]
    for program, scale in FIG8_CELLS:
        cell = cell_name(program, scale)
        rows += [(f"fig8.{cell}.{engine}_ms", "ms", "lower") for engine in DESCEND_ENGINES]
        rows.append((f"fig8.{cell}.cudalite_ms", "ms", "lower"))
    rows.append(("error_rate", "ratio", "lower"))
    rows += [
        (f"overhead.{name}", unit, better) for name, (unit, better) in END_TO_END.items()
    ]
    return {name: (unit, better) for name, unit, better in rows}


#: Per-layer metrics of the traced run: name -> (unit, better).  Every
#: workload reports all of them; a layer its workload does not exercise
#: reads 0, which is the "should stay flat" prediction made visible.
PER_LAYER = _per_layer()

#: Counts that must repeat exactly between two traced runs of one seed (on
#: serve the pairing of ops with novel programs depends on client timing).
EXACT_COUNTS = {
    "compile": ("typeck.rejected", "plan.ir_ops", "driver.compute_passes"),
    "cli": ("store.writes",),
    "fig8": ("gpusim.sim_cycles", "gpusim.accesses", "plan.ir_ops"),
}
