"""Helpers shared by the workloads: run context, results, children, stats."""

from __future__ import annotations

import ast
import contextlib
import gc
import io
import math
import os
import resource
import statistics
import subprocess
import threading
import time
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

#: How many times a workload repeats its (cheap part of) set-up; ``setup_s``
#: reports the median.
SETUP_REPEATS = 3

#: The CPUs this process may run on, as it started.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []


def pin(pid: int, index: int) -> None:
    """Pin ``pid`` (0: this process, and the children it starts later) to
    one CPU, when there are at least two.  On a shared 2-vCPU host the two
    vCPUs ran a fixed Python loop at different and differently steady
    speeds, so a run that landed on either one by chance added that
    difference to the spread between runs."""
    if len(CPUS) >= 2:
        os.sched_setaffinity(pid, {CPUS[index]})


@dataclass
class Context:
    """What one workload run gets: its seed, length, scratch dir and tracer."""

    root: str
    seed: int
    seconds: int
    tmp: str
    tracer: Optional[object] = None
    python: str = "python3"

    def path(self, *parts: str) -> str:
        """A path under this run's scratch directory, relative to the root."""
        return os.path.join(self.tmp, *parts)

    def untraced(self):
        """Pause tracing around the benchmark's own oracle work."""
        return self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()

    def env(self) -> Dict[str, str]:
        """Environment of the children this run starts."""
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["TMPDIR"] = os.path.abspath(self.tmp)
        env.pop("REPRO_STORE", None)
        env.pop("REPRO_SOCKET", None)
        env.pop("REPRO_FAULTS", None)
        return env

    def cli_command(self, args: Sequence[str], status: str, spans: Optional[str] = None) -> List[str]:
        """``descendc ARGS`` as a child that writes its ``/proc`` status to
        ``status`` as it exits (:class:`Child` reads its peak RSS there):
        ``repro.cli`` run as ``__main__`` when untraced, the benchmark's
        launcher (same ``repro.cli.main``, wrappers installed, spans dumped
        to ``spans``) when traced."""
        if self.tracer is None:
            return [self.python, "-c", CLI_SNIPPET, status, *args]
        launcher = os.path.join(self.root, "perfbench", "launcher.py")
        return [self.python, launcher, spans, status, *args]


#: An untraced ``descendc`` child: ``python -m repro.cli`` plus an exit hook
#: that saves the process's own status.  The peak RSS ``wait4`` reports is
#: no use for a child of this process: at exec the kernel folds the
#: parent's high-water mark into the child's, so every CLI child read the
#: benchmark's 40-57 MB while one started from a bare shell peaks near 25 MB.
CLI_SNIPPET = (
    "import atexit, runpy, sys; status = sys.argv.pop(1); "
    "atexit.register(lambda: open(status, 'w').write(open('/proc/self/status').read())); "
    "runpy.run_module('repro.cli', run_name='__main__', alter_sys=True)"
)


def status_peak_rss_mb(path: str) -> float:
    """``VmHWM`` (the process's own peak RSS) from a saved ``/proc`` status;
    0 when the process wrote none."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


@dataclass
class Result:
    """One workload run: metrics by name, operation counts, extra layer data."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Workload-measured per-layer values (cell times, latency thirds, ...).
    layer: Dict[str, float] = field(default_factory=dict)
    #: The host-speed samples the run's times were scaled by.
    speed: Optional["HostSpeed"] = None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


#: What the interpreter calibration lexes and walks: a few lines of Python.
CALIBRATION_SOURCE = "".join(f"v{i} = table.get({i}, 'k{i}') + f(x[{i}], y={i} * 3)\n" for i in range(8))

_CALIBRATION_RNG = np.random.default_rng(0)
_CALIBRATION_KEYS = _CALIBRATION_RNG.integers(0, 1024, 12000)
_CALIBRATION_VALUES = _CALIBRATION_RNG.random(12000)


def numpy_loop() -> float:
    """Array work: scatter-add, stable sort and unique over a fixed array."""
    totals = np.zeros(1024)
    np.add.at(totals, _CALIBRATION_KEYS, _CALIBRATION_VALUES)
    order = np.argsort(_CALIBRATION_KEYS, kind="stable")
    return float(totals.sum()) + len(np.unique(_CALIBRATION_KEYS[order]))


def mixed_loop() -> float:
    """Compiler-shaped interpreter work (a lexer, a tree walk, dict churn)
    followed by :func:`numpy_loop`."""
    tokens = list(tokenize.generate_tokens(io.StringIO(CALIBRATION_SOURCE).readline))
    nodes = sum(1 for _ in ast.walk(ast.parse(CALIBRATION_SOURCE)))
    table: Dict[str, tuple] = {}
    for i in range(600):
        table[str(i)] = (i, [i])
    return len(tokens) + nodes + len(table) + numpy_loop()


#: Calibration loops by name, each with its median seconds per sample on the
#: host the bounds were set on (2-vCPU Intel Xeon VM, pinned); only the
#: scale of reported times depends on the reference.  Which loop a workload
#: samples is set by which one's speed followed its own across the host's
#: swings (``perfbench/DESIGN.md``): the interpreter part alone swung more
#: than the compiler and far more than CLI start-up, array work alone less.
CALIBRATIONS: Dict[str, tuple] = {
    "numpy": (numpy_loop, 0.002),
    "mixed": (mixed_loop, 0.004),
}


class HostSpeed:
    """The host's current speed, sampled alongside the measured work.

    A shared 2-vCPU host ran fixed loops at speeds up to 2x apart from one
    minute (and one vCPU) to the next, which moved every time metric by
    nearly as much between runs of one build.  A workload takes a sample of
    a fixed loop, on the CPU its work runs on, every few operations, and
    scales its times by the loop's reference time over the median sample:
    times are reported in seconds of the reference host.  The median
    ignores the samples a preemption lands in.  The loops are benchmark
    code, so a change to the program cannot speed them up.
    """

    def __init__(self, kind: str) -> None:
        self.loop, self.ref_s = CALIBRATIONS[kind]
        self.samples: List[float] = []

    def sample(self, count: int = 1) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                start = time.perf_counter()
                self.loop()
                self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def scale(self) -> float:
        """Multiply a measured time by this (divide a rate by it)."""
        return self.ref_s / median(self.samples)


def op_metrics(result: "Result", setup_s: float, times_s: Sequence[float], speed: HostSpeed) -> None:
    """``setup_s``, ``op_p50_ms`` and ``ops_per_s`` from the set-up seconds
    and the seconds each operation took, scaled to the reference host."""
    scale = speed.scale()
    result.metrics["setup_s"] = setup_s * scale
    result.metrics["op_p50_ms"] = median(times_s) * 1e3 * scale
    result.metrics["ops_per_s"] = len(times_s) / sum(times_s) / scale
    result.speed = speed


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Child:
    """One started child process, reaped with a blocking ``waitpid`` (so its
    wall time ends when it does).  A ``descendc`` child started with
    :meth:`Context.cli_command` reports its own peak RSS in ``status``."""

    def __init__(self, command: Sequence[str], ctx: Context, log: str, status: Optional[str] = None) -> None:
        self.log = log
        self.status = status
        self._log_handle = open(log, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            list(command), cwd=ctx.root, env=ctx.env(),
            stdin=subprocess.DEVNULL, stdout=self._log_handle, stderr=subprocess.STDOUT,
        )
        self.returncode: Optional[int] = None
        self.wall_s = 0.0
        self.peak_rss_mb = 0.0

    def _reaped(self, status: int) -> int:
        self.wall_s = time.perf_counter() - self.started
        self.returncode = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.returncode
        if self.status:
            self.peak_rss_mb = status_peak_rss_mb(self.status)
        self._log_handle.close()
        return self.returncode

    def poll(self) -> Optional[int]:
        """The exit code if the child has ended (reaping it), else ``None``."""
        if self.returncode is None:
            pid, status = os.waitpid(self.proc.pid, os.WNOHANG)
            if pid:
                self._reaped(status)
        return self.returncode

    def wait(self, timeout: float) -> int:
        """Reap the child (killing it past ``timeout``); returns its exit code."""
        if self.returncode is not None:
            return self.returncode
        watchdog = threading.Timer(timeout, self.proc.kill)
        watchdog.start()
        try:
            _, status = os.waitpid(self.proc.pid, 0)
        finally:
            watchdog.cancel()
        return self._reaped(status)

    def output(self) -> str:
        with open(self.log, "r", encoding="utf-8", errors="replace") as handle:
            return handle.read()


def run_child(command: Sequence[str], ctx: Context, log: str, status: Optional[str] = None,
              timeout: float = 120.0) -> Child:
    """Run one child to completion (children run one at a time)."""
    child = Child(command, ctx, log, status)
    child.wait(timeout)
    return child
