"""Three-point stencil (the halo-exchange workload).

``out[i] = (inp[i] + inp[i+1] + inp[i+2]) / 3`` over a padded input of
``n + 2`` elements: each thread reads its own cell plus the two halo
neighbours — the window reads of adjacent threads (and of adjacent blocks,
at chunk boundaries) overlap, matching the view-window formulation of the
Descend variant (:mod:`repro.descend_programs.stencil`).
"""

from __future__ import annotations

from repro.cudalite.kernels.vector import global_tid
from repro.gpusim.buffer import DeviceBuffer
from repro.gpusim.launch import ThreadCtx


def stencil3_kernel(ctx: ThreadCtx, input_buf: DeviceBuffer, output_buf: DeviceBuffer):
    """``out[i]`` = mean of the three padded cells ``inp[i .. i+2]``."""
    index = global_tid(ctx)
    left = ctx.load(input_buf, index)
    center = ctx.load(input_buf, index + 1)
    right = ctx.load(input_buf, index + 2)
    ctx.arith(3)
    ctx.store(output_buf, index, (left + center + right) * (1.0 / 3.0))
