"""Block-wide parallel reduction (the Reduce benchmark of Figure 8).

The classic shared-memory tree reduction: each block loads one chunk of the
input into shared memory and repeatedly halves the number of active threads,
each adding its partner's element, with a barrier between steps.  Thread 0
writes the block's partial sum to the output.
"""

from __future__ import annotations

from repro.gpusim.buffer import DeviceBuffer
from repro.gpusim.launch import ThreadCtx

import numpy as np


def block_reduce_kernel(ctx: ThreadCtx, input_buf: DeviceBuffer, output_buf: DeviceBuffer):
    """One partial sum per block; ``output[blockIdx.x] = sum(chunk of input)``.

    The threads of a step that add nothing, and all but thread 0 at the end,
    are predicated off with ``where=`` (CUDA's ``if (tid < stride)``), so
    every engine runs this one body.
    """
    tid = ctx.threadIdx.x
    block_size = ctx.blockDim.x
    base = ctx.blockIdx.x * block_size

    tmp = ctx.shared("tmp", (block_size,), dtype=input_buf.dtype)
    value = ctx.load(input_buf, base + tid)
    ctx.store(tmp, tid, value)
    yield  # __syncthreads()

    stride = block_size // 2
    while stride >= 1:
        active = tid < stride
        left = ctx.load(tmp, tid, where=active)
        right = ctx.load(tmp, tid + stride, where=active)
        ctx.arith(1, where=active)
        ctx.store(tmp, tid, left + right, where=active)
        yield  # __syncthreads()
        stride //= 2

    leader = tid == 0
    total = ctx.load(tmp, 0, where=leader)
    ctx.store(output_buf, ctx.blockIdx.x, total, where=leader)


def final_reduce_on_host(partial_sums: np.ndarray) -> float:
    """The host-side final reduction over the per-block partial sums."""
    return float(np.sum(partial_sums))
