"""Tiled matrix multiplication (the MM benchmark of Figure 8).

Every block computes one ``tile × tile`` tile of ``C = A × B`` by marching
over the K dimension in tile-sized phases, staging one tile of A and one
tile of B in shared memory per phase (with barriers around the staging), and
accumulating the per-thread dot product in a register.
"""

from __future__ import annotations

from repro.gpusim.buffer import DeviceBuffer
from repro.gpusim.launch import ThreadCtx


def matmul_kernel(
    ctx: ThreadCtx,
    a_buf: DeviceBuffer,
    b_buf: DeviceBuffer,
    c_buf: DeviceBuffer,
    size_m: int,
    size_k: int,
    size_n: int,
    tile: int = 8,
):
    """``C[M, N] = A[M, K] @ B[K, N]`` with square ``tile × tile`` thread blocks."""
    tx = ctx.threadIdx.x
    ty = ctx.threadIdx.y
    row = ctx.blockIdx.y * tile + ty
    col = ctx.blockIdx.x * tile + tx

    a_tile = ctx.shared("a_tile", (tile * tile,), dtype=a_buf.dtype)
    b_tile = ctx.shared("b_tile", (tile * tile,), dtype=b_buf.dtype)

    acc = a_buf.dtype.type(0)
    phases = size_k // tile
    for phase in range(phases):
        ctx.store(a_tile, ty * tile + tx, ctx.load(a_buf, row * size_k + phase * tile + tx))
        ctx.store(b_tile, ty * tile + tx, ctx.load(b_buf, (phase * tile + ty) * size_n + col))
        yield  # __syncthreads()

        for k in range(tile):
            a_val = ctx.load(a_tile, ty * tile + k)
            b_val = ctx.load(b_tile, k * tile + tx)
            ctx.arith(2)
            acc = acc + a_val * b_val
        yield  # __syncthreads()

    ctx.store(c_buf, row * size_n + col, acc)
