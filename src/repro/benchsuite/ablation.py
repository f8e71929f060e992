"""Ablation studies (DESIGN.md experiments A1 and A2).

* **A1 — type-checking cost**: Descend's safety is purely static; this
  ablation measures how long the extended borrow checking takes per benchmark
  program (the paper claims "no significant runtime overhead", i.e. all cost
  is at compile time).
* **A2 — coalescing / tiling**: why the *tiled* transpose is the right
  baseline: the naive transpose (direct transposed global writes) pays one
  global-memory transaction per element on the strided side, which the cost
  model punishes exactly like real hardware does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.benchsuite.compilebench import PROGRAMS
from repro.benchsuite.report import format_table
from repro.cudalite.kernels import transpose as cu_transpose
from repro.descend.typeck import check_program
from repro.gpusim import GpuDevice


@dataclass
class TypecheckTiming:
    """Wall-clock time for type checking one benchmark program."""

    program: str
    seconds: float
    functions: int


def typecheck_cost(repeats: int = 3) -> List[TypecheckTiming]:
    """A1: measure the type checker on every benchmark program."""
    timings: List[TypecheckTiming] = []
    for name, builder in PROGRAMS.items():
        program = builder()
        best = float("inf")
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            check_program(program)
            best = min(best, time.perf_counter() - start)
        timings.append(TypecheckTiming(program=name, seconds=best, functions=len(program.fun_defs)))
    return timings


@dataclass
class CoalescingResult:
    """A2: simulated cycles of the tiled vs the naive transpose."""

    matrix_size: int
    tiled_cycles: float
    naive_cycles: float
    tiled_transactions: int
    naive_transactions: int

    @property
    def speedup(self) -> float:
        if self.tiled_cycles == 0:
            return float("nan")
        return self.naive_cycles / self.tiled_cycles


def coalescing_ablation(matrix_size: int = 64, tile: int = 16, rows: int = 4) -> CoalescingResult:
    """A2: run the tiled and naive transposes and compare their costs."""
    rng = np.random.default_rng(7)
    data = rng.random((matrix_size, matrix_size))

    def run(kernel) -> tuple:
        device = GpuDevice()
        input_buf = device.to_device(data.reshape(-1))
        output_buf = device.malloc((matrix_size * matrix_size,), dtype=np.float64)
        launch = device.launch(
            kernel,
            grid_dim=(matrix_size // tile, matrix_size // tile),
            block_dim=(tile, rows),
            args=(input_buf, output_buf, matrix_size, tile),
        )
        assert np.allclose(device.to_host(output_buf).reshape(matrix_size, matrix_size), data.T)
        return launch.cycles, launch.cost.global_transactions

    tiled_cycles, tiled_tx = run(cu_transpose.transpose_kernel)
    naive_cycles, naive_tx = run(cu_transpose.naive_transpose_kernel)
    return CoalescingResult(
        matrix_size=matrix_size,
        tiled_cycles=tiled_cycles,
        naive_cycles=naive_cycles,
        tiled_transactions=tiled_tx,
        naive_transactions=naive_tx,
    )


def main() -> int:  # pragma: no cover - the module's only entry point
    timings = typecheck_cost()
    print("A1: type-checking cost per benchmark program")
    print(
        format_table(
            ["program", "functions", "seconds"],
            [(t.program, t.functions, round(t.seconds, 4)) for t in timings],
        )
    )
    print()
    result = coalescing_ablation()
    print("A2: tiled vs naive transpose (coalescing)")
    print(
        format_table(
            ["matrix", "tiled cycles", "naive cycles", "naive/tiled", "tiled tx", "naive tx"],
            [
                (
                    result.matrix_size,
                    round(result.tiled_cycles, 1),
                    round(result.naive_cycles, 1),
                    round(result.speedup, 2),
                    result.tiled_transactions,
                    result.naive_transactions,
                )
            ],
        )
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
