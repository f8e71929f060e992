"""The compile workload: every compiler pass, once per program, in-process.

A seeded stream of distinct programs goes through
``LocalBackend.handle`` as ``check``, ``compile``, ``plan`` and ``plan``
with ``jit``, each program on its own memory-only session with no store,
so parse, typeck, ``lower.plan`` (+ opt), ``lower.plan.codegen`` and
``lower.cuda`` each run exactly once per program.  The compiler passes do
nearly all the work here and little anywhere else.  A session per program
keeps the caches of earlier programs out of the heap: on one session for
the whole run, garbage-collection pauses grew with the cache to 300 ms and
the p99 moved with how many of them a run happened to hold.

Per-program time is this process's CPU time (``time.process_time``): the
compile is single-threaded and does no I/O, so it equals wall time minus
the host's steal.  On a shared 2-core VM the wall-clock p99 swung from 15 to
32 ms between runs of one build as the hypervisor descheduled the vCPU;
garbage-collection pauses, which are real compile cost, still count.  A
host-speed sample every few programs scales the times to the reference
host (:class:`perfbench.common.HostSpeed`).

Oracle: a non-mutant program is accepted and yields all four artifacts;
any rejection is a structured ``type-error`` with a rendered diagnostic.
A mutant's verdict is not asserted (a few ``drop_sync`` mutants legally
type-check).
"""

from __future__ import annotations

import subprocess
import time

from perfbench.common import Context, HostSpeed, Result, median, op_metrics, percentile, self_peak_rss_mb
from perfbench.inputs import compile_stream

DECLARED = (
    "frontend.parse", "typeck.check", "plan.lower", "plan.optimize", "plan.codegen",
    "codegen.cuda", "driver.record", "api.handle",
)

#: Programs per measured second on a 2-core machine (about 5.5 ms each);
#: the count is fixed per run length so counts repeat exactly for one seed.
PROGRAMS_PER_S = 180

#: What set-up is: the imports of the compile path and one fresh backend,
#: timed in a fresh interpreter (``{trace}`` installs the wrappers first in
#: the traced run, as this process does).
SETUP_SNIPPET = (
    "import sys, time; t = time.perf_counter(); {trace}"
    "import repro.descend.api as api, repro.fuzz.generate, repro.descend.ast.printer; "
    "api.LocalBackend(label='compile'); print(time.perf_counter() - t)"
)
TRACE_SNIPPET = "sys.path.insert(0, {root!r}); from perfbench.tracing import Tracer, install; install(Tracer()); "

#: Set-up samples (this process plus fresh interpreters); ``setup_s`` is
#: their median.  Set-up here is under half a second and swung by a tenth
#: between consecutive interpreters, so it takes more samples than the
#: other workloads' longer set-ups.
SETUP_SAMPLES = 6

#: Programs between two host-speed samples.
SAMPLE_EVERY = 16

OPS = (("check", {}), ("compile", {}), ("plan", {}), ("plan", {"jit": True}))


def _check_program(result: Result, program, responses) -> None:
    result.attempted += 1
    accepted = all(response.ok for response in responses)
    if accepted:
        check, compile_, plan, plan_jit = responses
        if not (check.artifacts.get("functions") and compile_.artifacts.get("cuda")
                and plan.artifacts.get("ir") and plan_jit.artifacts.get("ir")):
            result.fail(f"{program.name}: accepted with an empty artifact")
        return
    if not program.mutant:
        result.fail(f"{program.name}: well-typed program rejected: {responses[0].error}")
        return
    for response in responses:
        if response.ok:
            continue
        if response.error_code != "type-error" or not response.diagnostics:
            result.fail(f"{program.name}: rejection is not a rendered type-error: {response.error}")
            return


def run(ctx: Context, started: float) -> Result:
    from repro.descend.api import LocalBackend, Request

    backend = LocalBackend(label="compile")
    setups = [time.perf_counter() - started]
    trace = TRACE_SNIPPET.format(root=ctx.root) if ctx.tracer is not None else ""
    for _ in range(SETUP_SAMPLES - 1):
        probe = subprocess.run(
            [ctx.python, "-c", SETUP_SNIPPET.format(trace=trace)], cwd=ctx.root, env=ctx.env(),
            capture_output=True, text=True, timeout=120, check=True,
        )
        setups.append(float(probe.stdout.strip().splitlines()[-1]))

    result = Result()
    latencies = []
    speed = HostSpeed("mixed")
    for index, program in enumerate(compile_stream(ctx.seed, PROGRAMS_PER_S * ctx.seconds)):
        if index:
            backend = LocalBackend(label="compile")
        requests = [
            Request(op=op, source=program.text, name=program.name, options=options)
            for op, options in OPS
        ]
        start = time.process_time()
        responses = [backend.handle(request) for request in requests]
        latencies.append(time.process_time() - start)
        _check_program(result, program, responses)
        if index % SAMPLE_EVERY == 0:
            speed.sample()
    op_metrics(result, median(setups), latencies, speed)
    result.metrics["peak_rss_mb"] = self_peak_rss_mb()
    result.layer["compile.p99_ms"] = percentile(latencies, 99) * 1e3 * speed.scale()
    return result
