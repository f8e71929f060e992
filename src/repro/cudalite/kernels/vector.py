"""Element-wise vector kernels (the scale_vec example of Section 2.3).

Each kernel is written once, per thread.  The ``"reference"`` engine runs it
thread by thread; the lockstep engines (``"vectorized"`` and ``"jit"``) run
the same function once over per-thread index arrays.  Both perform
identical memory accesses, so cycle counts agree exactly.
"""

from __future__ import annotations

from repro.gpusim.buffer import DeviceBuffer
from repro.gpusim.launch import ThreadCtx


def global_tid(ctx) -> int:
    """The CUDA ``blockIdx.x * blockDim.x + threadIdx.x`` global thread index.

    Works for both context flavours: scalar per-thread indices under the
    reference engine, per-thread index *arrays* under the lockstep engines.
    """
    return ctx.blockIdx.x * ctx.blockDim.x + ctx.threadIdx.x


def scale_vec_kernel(ctx: ThreadCtx, vec: DeviceBuffer, factor: float):
    """``vec[i] = vec[i] * factor`` with one thread per element."""
    index = global_tid(ctx)
    value = ctx.load(vec, index)
    ctx.arith(1)
    ctx.store(vec, index, value * factor)


def init_kernel(ctx: ThreadCtx, vec: DeviceBuffer, value: float):
    """``vec[i] = value`` with one thread per element (Section 2.3 example)."""
    index = global_tid(ctx)
    ctx.store(vec, index, value)


def vec_add_kernel(ctx: ThreadCtx, out: DeviceBuffer, lhs: DeviceBuffer, rhs: DeviceBuffer):
    """``out[i] = lhs[i] + rhs[i]`` with one thread per element."""
    index = global_tid(ctx)
    a = ctx.load(lhs, index)
    b = ctx.load(rhs, index)
    ctx.arith(1)
    ctx.store(out, index, a + b)


def saxpy_kernel(ctx: ThreadCtx, y: DeviceBuffer, x: DeviceBuffer, alpha: float):
    """``y[i] = alpha * x[i] + y[i]``."""
    index = global_tid(ctx)
    xv = ctx.load(x, index)
    yv = ctx.load(y, index)
    ctx.arith(2)
    ctx.store(y, index, alpha * xv + yv)
