"""Gather-style histogram (the contention workload, sans atomics).

The classic CUDA histogram contends on ``atomicAdd``; the simulator has no
atomics, so the baseline uses the same gather-style schedule as the Descend
variant (:mod:`repro.descend_programs.histogram`): one thread per bin, every
thread of a block scans the block's whole chunk of the key stream — maximal
overlapping reads — and counts its matches into a register.  A second
single-block kernel sums the per-(block, bin) partials into the final
histogram.
"""

from __future__ import annotations

from repro.gpusim.buffer import DeviceBuffer
from repro.gpusim.launch import ThreadCtx


def histogram_partials_kernel(
    ctx: ThreadCtx, keys: DeviceBuffer, partials: DeviceBuffer, chunk: int
):
    """``partials[block * bins + t] = |{j : keys_chunk[j] == t}|``."""
    my_bin = ctx.threadIdx.x
    bins = ctx.blockDim.x
    base = ctx.blockIdx.x * chunk
    count = 0.0
    for j in range(chunk):
        key = ctx.load(keys, base + j)
        ctx.arith(1)
        count = count + (key == my_bin) * 1.0
    ctx.store(partials, ctx.blockIdx.x * bins + my_bin, count)


def combine_bins_kernel(
    ctx: ThreadCtx, partials: DeviceBuffer, bins_out: DeviceBuffer, num_blocks: int
):
    """``bins_out[t] = sum_i partials[i * bins + t]`` (one block of bins threads)."""
    my_bin = ctx.threadIdx.x
    bins = ctx.blockDim.x
    acc = 0.0
    for i in range(num_blocks):
        value = ctx.load(partials, i * bins + my_bin)
        ctx.arith(1)
        acc = acc + value
    ctx.store(bins_out, my_bin, acc)
