"""Benchmark and workload definitions for the Figure 8 reproduction.

The paper runs four benchmarks (block-wide reduction, matrix transposition,
scan, matrix multiplication) at three memory footprints (256 MB, 512 MB and
1 GB of GPU memory).  The pure-Python simulator interprets every thread, so
the default footprints here are scaled down; the *relative* runtimes that
Figure 8 reports are footprint-independent under the simulator's cost model
(EXPERIMENTS.md records the scaling).  Pass an integer ``scale`` (the
``figure8 --scale`` and ``bench --scales`` CLI flags) to enlarge every
workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import BenchmarkError

#: The four benchmarks of Figure 8.
BENCHMARKS: Tuple[str, ...] = ("reduce", "transpose", "scan", "matmul")

#: The three footprint sizes of Figure 8.
SIZES: Tuple[str, ...] = ("small", "medium", "large")


def scale_factor(scale: Optional[int] = None) -> int:
    """Resolve the workload scale factor (the CLI's ``--scale``/``--scales``).

    ``None`` and invalid values fall back to 1.
    """
    try:
        return max(1, int(scale))
    except (TypeError, ValueError):
        return 1


@dataclass(frozen=True)
class Workload:
    """One benchmark instance: the parameters shared by both implementations."""

    benchmark: str
    size: str
    params: Dict[str, int] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"{self.benchmark}/{self.size}"

    def footprint_elements(self) -> int:
        """Number of f64 elements of the main data structure (for reporting)."""
        params = self.params
        if self.benchmark in ("reduce", "scan"):
            return params["n"]
        if self.benchmark == "transpose":
            return params["n"] * params["n"]
        if self.benchmark == "matmul":
            return params["m"] * params["k"] + params["k"] * params["n"] + params["m"] * params["n"]
        if self.benchmark == "histogram":
            return params["n"] + params["bins"] * (params["num_blocks"] + 2)
        if self.benchmark == "stencil":
            return 2 * params["n"] + 2
        raise BenchmarkError(f"unknown benchmark {self.benchmark!r}")

    def footprint_bytes(self) -> int:
        return self.footprint_elements() * 8


# Baseline (scale = 1) parameters per benchmark and size.  They are chosen so
# that the full Figure 8 sweep (CUDA + Descend, 4 benchmarks x 3 sizes) runs
# in a couple of minutes under the pure-Python interpreter.
_BASE_PARAMS: Dict[str, Dict[str, Dict[str, int]]] = {
    "reduce": {
        "small": {"n": 4096, "block_size": 64},
        "medium": {"n": 8192, "block_size": 64},
        "large": {"n": 16384, "block_size": 64},
    },
    "transpose": {
        "small": {"n": 32, "tile": 16, "rows": 4},
        "medium": {"n": 64, "tile": 16, "rows": 4},
        "large": {"n": 96, "tile": 16, "rows": 4},
    },
    "scan": {
        "small": {"n": 2048, "block_size": 32, "elems_per_thread": 4},
        "medium": {"n": 4096, "block_size": 32, "elems_per_thread": 4},
        "large": {"n": 8192, "block_size": 32, "elems_per_thread": 4},
    },
    "matmul": {
        "small": {"m": 16, "k": 16, "n": 16, "tile": 8},
        "medium": {"m": 24, "k": 24, "n": 24, "tile": 8},
        "large": {"m": 32, "k": 32, "n": 32, "tile": 8},
    },
    # The two PR 9 workloads ride outside the Figure 8 BENCHMARKS tuple (the
    # golden rows of the paper's sweep stay untouched); the Descend engine
    # benchmark picks them up via its own DESCEND_BENCHMARKS list.
    "histogram": {
        "small": {"n": 1024, "bins": 16, "num_blocks": 8},
        "medium": {"n": 2048, "bins": 16, "num_blocks": 8},
        "large": {"n": 4096, "bins": 16, "num_blocks": 8},
    },
    "stencil": {
        "small": {"n": 4096, "block_size": 64},
        "medium": {"n": 8192, "block_size": 64},
        "large": {"n": 16384, "block_size": 64},
    },
}


def workload(benchmark: str, size: str, scale: Optional[int] = None) -> Workload:
    """Build the workload for one benchmark at one size, enlarged by ``scale``."""
    if benchmark not in _BASE_PARAMS:
        raise BenchmarkError(f"unknown benchmark {benchmark!r}; expected one of {BENCHMARKS}")
    if size not in _BASE_PARAMS[benchmark]:
        raise BenchmarkError(f"unknown size {size!r}; expected one of {SIZES}")
    params = dict(_BASE_PARAMS[benchmark][size])
    factor = scale_factor(scale)
    if factor > 1:
        if benchmark in ("reduce", "scan"):
            params["n"] *= factor
        elif benchmark == "transpose":
            params["n"] *= factor
        elif benchmark == "matmul":
            params["m"] *= factor
            params["k"] *= factor
            params["n"] *= factor
        elif benchmark in ("histogram", "stencil"):
            params["n"] *= factor
    return Workload(benchmark=benchmark, size=size, params=params)


def all_workloads(scale: Optional[int] = None) -> Tuple[Workload, ...]:
    """Every benchmark/size combination of Figure 8."""
    return tuple(workload(benchmark, size, scale=scale) for benchmark in BENCHMARKS for size in SIZES)
