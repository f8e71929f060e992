"""The cli workload: one-shot ``descendc compile --store`` children.

This is what a Descend programmer runs, and its cost is mostly not the
compiler: interpreter start and ``import repro.cli`` dominate a ~4 ms
compile.  Set-up pre-fills a fresh store with a few hundred programs (store
size matters: every put rewrites the whole ``index.json``).  The timed loop
alternates a cold child (program not yet stored) with a warm child (same
program, now stored), one child at a time, because batches of one kind
drift with machine state.

The pre-fill runs untraced in the traced run, so the per-layer figures
describe the children only.

Oracle: the cold and the warm child of a program write byte-identical
CUDA, equal to an in-process compile of the same source.
"""

from __future__ import annotations

import os
import time

from perfbench.common import SETUP_REPEATS, Context, HostSpeed, Result, median, op_metrics, run_child
from perfbench.inputs import CLI_PREFILL_BASE, CLI_TIMED_BASE, fuzz_programs

#: Wrappers that must fire inside the CLI children (the pre-fill and the
#: oracle run untraced in this process).
DECLARED = tuple(f"cli:{key}" for key in (
    "cli.import", "frontend.parse", "typeck.check", "codegen.cuda", "driver.record",
    "store.open", "store.load", "store.put", "store.index_update",
))

#: Programs in the store before the first timed child.
PREFILL = 200

#: Cold+warm pairs per measured second (a child takes about 0.4 s on a
#: 2-core machine); fixed per run length so counts repeat exactly.
PAIRS_PER_S = 1.3

#: Host-speed samples after each child (on the CPU the children run on).
SAMPLES_PER_CHILD = 4

#: Bare-interpreter starts timed by the traced run (``cli.python_start_ms``).
BARE_STARTS = 5


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError:
        return b""


def run(ctx: Context, started: float) -> Result:
    from repro.descend.api import LocalBackend, Request

    result = Result()
    sources = ctx.path("src")
    os.makedirs(sources)
    prefill = fuzz_programs(ctx.seed, CLI_PREFILL_BASE, PREFILL, well_typed=True)
    imports_s = time.perf_counter() - started
    fills = []
    # The pre-fill runs SETUP_REPEATS times, each into a fresh store; the
    # timed loop uses the last one.
    for repeat in range(SETUP_REPEATS):
        begin = time.perf_counter()
        store = ctx.path(f"store{repeat}")
        with ctx.untraced():
            filler = LocalBackend(label="prefill").attach_store_path(store)
            for program in prefill:
                response = filler.handle(Request(op="compile", source=program.text, name=program.name))
                if not response.ok:
                    result.fail(f"prefill {program.name}: {response.error}")
        fills.append(time.perf_counter() - begin)

    pairs = fuzz_programs(ctx.seed, CLI_TIMED_BASE, max(2, round(PAIRS_PER_S * ctx.seconds)), well_typed=True)
    cold, warm, peak = [], [], 0.0
    outputs = {}
    speed = HostSpeed("numpy")
    for index, program in enumerate(pairs):
        path = os.path.join(sources, program.name)
        _write(path, program.text)
        for kind, times in (("cold", cold), ("warm", warm)):
            out = ctx.path(f"{index}.{kind}.cu")
            spans = ctx.path(f"{index}.{kind}.spans.json")
            status = ctx.path(f"{index}.{kind}.status")
            child = run_child(
                ctx.cli_command(["compile", path, "--store", store, "-o", out], status, spans),
                ctx, ctx.path(f"{index}.{kind}.log"), status,
            )
            times.append(child.wall_s)
            speed.sample(SAMPLES_PER_CHILD)
            peak = max(peak, child.peak_rss_mb)
            result.attempted += 1
            if child.returncode != 0:
                result.fail(f"{kind} compile of {program.name} exited {child.returncode}: {child.output()[-300:]}")
            elif not child.peak_rss_mb:
                result.fail(f"{kind} compile of {program.name} wrote no status")
            outputs[(index, kind)] = _read(out)
            if ctx.tracer is not None and not ctx.tracer.merge_file(spans, "cli"):
                result.fail(f"{kind} compile of {program.name} wrote no spans")

    # The oracle runs after the timed loop: an in-process compile of each
    # source under the same unit name the children used.
    oracle = LocalBackend(label="oracle")
    for index, program in enumerate(pairs):
        path = os.path.join(sources, program.name)
        with ctx.untraced():
            expected = oracle.handle(Request(op="compile", path=path)).artifacts.get("cuda", "")
        cold_out, warm_out = outputs[(index, "cold")], outputs[(index, "warm")]
        if not cold_out or cold_out != warm_out or cold_out.decode("utf-8") != expected:
            result.fail(f"{program.name}: cold/warm/in-process CUDA differ")

    if ctx.tracer is not None:
        bare = [run_child([ctx.python, "-c", "pass"], ctx, ctx.path("bare.log")).wall_s for _ in range(BARE_STARTS)]
        result.layer["cli.python_start_ms"] = median(bare) * 1e3
    op_metrics(result, imports_s + median(fills), cold + warm, speed)
    result.metrics["peak_rss_mb"] = peak
    result.layer["cli.cold_ms"] = median(cold) * 1e3 * speed.scale()
    result.layer["cli.warm_ms"] = median(warm) * 1e3 * speed.scale()
    return result
