"""Tiled matrix transposition through shared memory (the Transpose benchmark).

This is the (fixed) version of Listing 1 of the paper: a block of
``tile × rows`` threads transposes one ``tile × tile`` tile of the matrix,
staging it in shared memory; each thread copies ``tile / rows`` elements.
"""

from __future__ import annotations

from repro.gpusim.buffer import DeviceBuffer
from repro.gpusim.launch import ThreadCtx


def transpose_kernel(
    ctx: ThreadCtx,
    input_buf: DeviceBuffer,
    output_buf: DeviceBuffer,
    matrix_size: int,
    tile: int = 16,
):
    """Transpose a ``matrix_size``²  matrix; launched with blocks of ``tile × rows``."""
    rows = ctx.blockDim.y
    tx = ctx.threadIdx.x
    ty = ctx.threadIdx.y

    tmp = ctx.shared("tile", (tile * tile,), dtype=input_buf.dtype)

    col = ctx.blockIdx.x * tile + tx
    row = ctx.blockIdx.y * tile + ty
    j = 0
    while j < tile:
        ctx.store(
            tmp,
            (ty + j) * tile + tx,
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


def naive_transpose_kernel(
    ctx: ThreadCtx,
    input_buf: DeviceBuffer,
    output_buf: DeviceBuffer,
    matrix_size: int,
    tile: int = 16,
):
    """Transpose without shared-memory tiling (used by the coalescing ablation).

    Every thread writes directly to the transposed position in global memory,
    so either the reads or the writes of a warp are strided by ``matrix_size``
    and cannot be coalesced — the cost model charges one transaction per
    element for that side, which is why the tiled kernel wins.
    """
    rows = ctx.blockDim.y
    tx = ctx.threadIdx.x
    ty = ctx.threadIdx.y
    col = ctx.blockIdx.x * tile + tx
    row = ctx.blockIdx.y * tile + ty
    j = 0
    while j < tile:
        value = ctx.load(input_buf, (row + j) * matrix_size + col)
        ctx.store(output_buf, col * matrix_size + (row + j), value)
        j += rows
