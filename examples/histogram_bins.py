#!/usr/bin/env python
"""Histogram without atomics: Descend's gather-style bin counting.

The classic CUDA histogram contends on ``atomicAdd``; Descend has no atomics
and its type system rejects any schedule where two threads write one bin.
The safe formulation inverts the loop: one thread per bin scans the block's
whole chunk of the key stream — maximal overlapping *reads*, zero write
contention — and a second kernel sums the per-block partials.  The race
detector watches every launch and stays silent.
"""

import numpy as np

from repro.descend.api import compile_program
from repro.descend_programs.histogram import build_histogram_program
from repro.gpusim import GpuDevice

N, BINS, BLOCKS = 1024, 16, 8


def main() -> None:
    rng = np.random.default_rng(0)
    keys = rng.integers(0, BINS, N).astype(np.float64)

    compiled = compile_program(build_histogram_program(n=N, bins=BINS, num_blocks=BLOCKS))
    device = GpuDevice()
    keys_buf = device.to_device(keys)
    bin_ids_buf = device.to_device(np.arange(BINS, dtype=np.float64))
    partials_buf = device.malloc((BLOCKS * BINS,), dtype=np.float64)
    bins_buf = device.malloc((BINS,), dtype=np.float64)

    first = compiled.kernel("histogram_partials").launch(
        device, {"keys": keys_buf, "bin_ids": bin_ids_buf, "partials": partials_buf}
    )
    second = compiled.kernel("combine_bins").launch(
        device, {"partials": partials_buf, "bins_out": bins_buf}
    )

    counts = device.to_host(bins_buf)
    reference = np.bincount(keys.astype(np.int64), minlength=BINS).astype(np.float64)
    assert np.array_equal(counts, reference)

    print(f"{N} keys into {BINS} bins across {BLOCKS} blocks")
    print(f"counts: {counts.astype(np.int64).tolist()}")
    print(f"cycles: {first.cycles + second.cycles:.1f}  "
          f"races: {len(first.races) + len(second.races)} (gather-style: none possible)")
    print("\ngenerated CUDA kernel for the partials pass:\n")
    print(compiled.to_cuda().kernel("histogram_partials"))


if __name__ == "__main__":
    main()
