"""Two-kernel inclusive scan (the Scan benchmark of Figure 8).

The structure follows the "scan-then-propagate" scheme that the Descend
program uses as well, so that both sides of Figure 8 perform the same memory
accesses:

1. ``scan_block_kernel`` — every thread scans its own chunk of
   ``elems_per_thread`` elements sequentially (writing the partial scan into
   the output), the per-thread totals are turned into per-thread exclusive
   offsets in shared memory, the per-block total goes to ``block_sums``, and
   finally every thread adds its offset to its chunk.
2. the host scans ``block_sums`` (exclusive) to obtain per-block offsets,
3. ``add_offsets_kernel`` — every thread adds its block's offset to its chunk.

The paper measures the scan benchmark "from the start of the first until the
end of the second kernel"; the benchmark harness therefore adds the two
kernel costs.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.buffer import DeviceBuffer
from repro.gpusim.launch import ThreadCtx


def scan_block_kernel(
    ctx: ThreadCtx,
    input_buf: DeviceBuffer,
    output_buf: DeviceBuffer,
    block_sums: DeviceBuffer,
    elems_per_thread: int,
):
    """Per-block inclusive scan with sequential per-thread chunks.

    Thread 0's serial pass over the block's totals runs in every thread
    under ``where=leader`` (CUDA's ``if (tid == 0)``), so every engine runs
    this one body.
    """
    tid = ctx.threadIdx.x
    block_size = ctx.blockDim.x
    base = (ctx.blockIdx.x * block_size + tid) * elems_per_thread

    running = input_buf.dtype.type(0)
    for j in range(elems_per_thread):
        value = ctx.load(input_buf, base + j)
        ctx.arith(1)
        running = running + value
        ctx.store(output_buf, base + j, running)

    sums = ctx.shared("sums", (block_size,), dtype=input_buf.dtype)
    ctx.store(sums, tid, running)
    yield  # __syncthreads()

    leader = tid == 0
    running_block = input_buf.dtype.type(0)
    for i in range(block_size):
        value = ctx.load(sums, i, where=leader)
        ctx.store(sums, i, running_block, where=leader)
        ctx.arith(1, where=leader)
        running_block = running_block + value
    ctx.store(block_sums, ctx.blockIdx.x, running_block, where=leader)
    yield  # __syncthreads()

    offset = ctx.load(sums, tid)
    for j in range(elems_per_thread):
        value = ctx.load(output_buf, base + j)
        ctx.arith(1)
        ctx.store(output_buf, base + j, value + offset)


def add_offsets_kernel(
    ctx: ThreadCtx,
    output_buf: DeviceBuffer,
    block_offsets: DeviceBuffer,
    elems_per_thread: int,
):
    """Add each block's exclusive offset to every element the block produced."""
    tid = ctx.threadIdx.x
    block_size = ctx.blockDim.x
    base = (ctx.blockIdx.x * block_size + tid) * elems_per_thread
    offset = ctx.load(block_offsets, ctx.blockIdx.x)
    for j in range(elems_per_thread):
        value = ctx.load(output_buf, base + j)
        ctx.arith(1)
        ctx.store(output_buf, base + j, value + offset)


def exclusive_scan_on_host(block_sums: np.ndarray) -> np.ndarray:
    """The host-side exclusive scan of the per-block sums (between the kernels)."""
    result = np.zeros_like(block_sums)
    if block_sums.size > 1:
        result[1:] = np.cumsum(block_sums)[:-1]
    return result
