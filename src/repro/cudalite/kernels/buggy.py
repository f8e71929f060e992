"""The *buggy* transpose of Listing 1 of the paper.

Line 5 of Listing 1 misses parentheses: ``threadIdx.y + j*32 + threadIdx.x``
instead of ``(threadIdx.y + j)*32 + threadIdx.x``.  Several threads of a
block therefore write to the same shared-memory location — a data race that
the simulator's dynamic race detector reports, and that Descend's type
checker rejects statically (the equivalent unsafe view cannot be expressed).
"""

from __future__ import annotations

from repro.gpusim.buffer import DeviceBuffer
from repro.gpusim.launch import ThreadCtx


def buggy_transpose_kernel(
    ctx: ThreadCtx,
    input_buf: DeviceBuffer,
    output_buf: DeviceBuffer,
    matrix_size: int,
    tile: int = 16,
):
    """Listing 1, bug included: the shared-memory index is missing parentheses."""
    rows = ctx.blockDim.y
    tx = ctx.threadIdx.x
    ty = ctx.threadIdx.y

    tmp = ctx.shared("tile", (tile * tile,), dtype=input_buf.dtype)

    col = ctx.blockIdx.x * tile + tx
    row = ctx.blockIdx.y * tile + ty
    j = 0
    while j < tile:
        # BUG (faithful to Listing 1): `ty + j*tile + tx` instead of `(ty + j)*tile + tx`.
        ctx.store(
            tmp,
            (ty + j * tile + tx) % (tile * tile),
            ctx.load(input_buf, (row + j) * matrix_size + col),
        )
        j += rows

    yield  # __syncthreads()

    out_col = ctx.blockIdx.y * tile + tx
    out_row = ctx.blockIdx.x * tile + ty
    j = 0
    while j < tile:
        ctx.store(
            output_buf,
            (out_row + j) * matrix_size + out_col,
            ctx.load(tmp, tx * tile + ty + j),
        )
        j += rows
