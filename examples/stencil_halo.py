#!/usr/bin/env python
"""Three-point stencil: halo exchange expressed purely with view windows.

``out[i] = (inp[i] + inp[i+1] + inp[i+2]) / 3`` over a padded input.  The
halo cells are not copied anywhere — the kernel reads the padded input
through three overlapping ``split``/``group`` view windows, so neighbouring
threads (and neighbouring blocks, at chunk boundaries) share reads of the
same cells while every write lands in a distinct per-thread cell.  The
borrow checker proves that sharing safe; the race detector confirms it at
runtime.
"""

import numpy as np

from repro.descend.api import compile_program
from repro.descend.ast.printer import print_program
from repro.descend_programs.stencil import build_stencil_program
from repro.gpusim import GpuDevice

N, BLOCK = 1024, 32


def main() -> None:
    rng = np.random.default_rng(1)
    padded = rng.random(N + 2)

    program = build_stencil_program(n=N, block_size=BLOCK)
    compiled = compile_program(program)
    device = GpuDevice()
    inp_buf = device.to_device(padded)
    out_buf = device.malloc((N,), dtype=np.float64)
    launch = compiled.kernel("stencil3").launch(device, {"inp": inp_buf, "out": out_buf})

    result = device.to_host(out_buf)
    reference = (padded[:-2] + padded[1:-1] + padded[2:]) / 3.0
    assert np.allclose(result, reference)

    print(f"{N} cells, block size {BLOCK}, padded halo of 2")
    print(f"max |error| vs numpy: {np.max(np.abs(result - reference)):.2e}")
    print(f"cycles: {launch.cycles:.1f}  races: {len(launch.races)}")
    print("\nthe Descend source (windows are the three shifted splits):\n")
    print(print_program(program))


if __name__ == "__main__":
    main()
