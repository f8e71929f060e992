"""Kernel execution: grids, blocks, threads, and barriers.

A kernel is a Python callable ``kernel(ctx, *args)`` where ``ctx`` is a
:class:`ThreadCtx`.  Kernels that use barriers must be *generator functions*
and ``yield`` wherever CUDA would call ``__syncthreads()``; the block
executor advances all threads of a block from barrier to barrier and checks
that they reach barriers together (barrier divergence is an error, mirroring
the undefined behaviour of CUDA described in Section 2 of the paper).
A thread that branches on its own index passes the condition as the
``where=`` predicate of its loads, stores and arithmetic, so the same kernel
also runs on the lockstep engines.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import BarrierDivergenceError, DeviceMemoryError
from repro.gpusim.buffer import DeviceBuffer
from repro.gpusim.cost import CostModel, MemoryAccess
from repro.gpusim.races import RaceDetector, RecordedAccess

Dim3 = Tuple[int, int, int]


def normalize_dim3(dim) -> Dim3:
    """Accept ints, 1/2/3-tuples and fill missing dimensions with 1.

    Zero or negative extents are rejected here rather than producing an empty
    grid that would silently execute no threads at all.
    """
    if isinstance(dim, (int, np.integer)):
        values: Tuple[int, ...] = (int(dim),)
    else:
        values = tuple(int(v) for v in dim)
    if len(values) > 3 or not values:
        raise DeviceMemoryError(f"invalid launch dimension {dim!r}")
    if any(value <= 0 for value in values):
        raise DeviceMemoryError(
            f"invalid launch dimension {dim!r}: every extent must be positive, "
            "an empty grid would silently execute no threads"
        )
    return (values + (1, 1, 1))[:3]


@dataclass(frozen=True)
class Index3:
    """A CUDA-style 3D index (``.x``, ``.y``, ``.z``)."""

    x: int
    y: int
    z: int

    def as_tuple(self) -> Dim3:
        return (self.x, self.y, self.z)


class ThreadCtx:
    """Per-thread execution context handed to kernels.

    It mirrors the CUDA built-ins (``threadIdx``, ``blockIdx``, ``blockDim``,
    ``gridDim``) and mediates every memory access so the race detector and the
    cost model see them.
    """

    def __init__(
        self,
        thread_idx: Dim3,
        block_idx: Dim3,
        block_dim: Dim3,
        grid_dim: Dim3,
        cost: Optional[CostModel],
        races: Optional[RaceDetector],
        shared_pool: Dict[str, DeviceBuffer],
        warp_size: int = 32,
    ) -> None:
        self.threadIdx = Index3(*thread_idx)
        self.blockIdx = Index3(*block_idx)
        self.blockDim = Index3(*block_dim)
        self.gridDim = Index3(*grid_dim)
        self._cost = cost
        self._races = races
        self._shared_pool = shared_pool
        self._warp_size = warp_size
        self._epoch = 0
        self._mem_slot = 0

    # -- identity ------------------------------------------------------------------
    @property
    def linear_thread_id(self) -> int:
        bd = self.blockDim
        ti = self.threadIdx
        return (ti.z * bd.y + ti.y) * bd.x + ti.x

    @property
    def linear_block_id(self) -> int:
        gd = self.gridDim
        bi = self.blockIdx
        return (bi.z * gd.y + bi.y) * gd.x + bi.x

    @property
    def global_thread_id(self) -> int:
        return self.linear_block_id * (self.blockDim.x * self.blockDim.y * self.blockDim.z) + self.linear_thread_id

    @property
    def warp_id(self) -> int:
        return self.linear_thread_id // self._warp_size

    @property
    def epoch(self) -> int:
        return self._epoch

    def advance_epoch(self) -> None:
        self._epoch += 1

    # -- memory ---------------------------------------------------------------------
    def _record(self, buffer: DeviceBuffer, offset: int, is_write: bool) -> None:
        if self._cost is not None:
            self._cost.record_access(
                MemoryAccess(
                    block=self.linear_block_id,
                    warp=self.warp_id,
                    slot=self._mem_slot,
                    address=offset * buffer.element_size,
                    is_write=is_write,
                    space=buffer.space,
                )
            )
        self._mem_slot += 1
        if self._races is not None and buffer.space in ("global", "shared"):
            self._races.record(
                RecordedAccess(
                    buffer_id=buffer.buffer_id,
                    offset=offset,
                    block=self.linear_block_id,
                    thread=self.linear_thread_id,
                    epoch=self._epoch,
                    is_write=is_write,
                    buffer_label=buffer.label,
                )
            )

    # Each call takes CUDA's ``if (where)`` around it: under a false predicate
    # the thread makes no access, advances no slot and counts no arithmetic.
    def load(self, buffer: DeviceBuffer, offset: int, where=None):
        """Read one element of a buffer; the dtype's zero where predicated off."""
        if where is not None and not where:
            return buffer.dtype.type(0)
        offset = int(offset)
        self._record(buffer, offset, is_write=False)
        return buffer.read(offset)

    def store(self, buffer: DeviceBuffer, offset: int, value, where=None) -> None:
        """Write one element of a buffer."""
        if where is not None and not where:
            return
        offset = int(offset)
        self._record(buffer, offset, is_write=True)
        buffer.write(offset, value)

    def arith(self, count: int = 1, where=None) -> None:
        """Account for arithmetic instructions executed by this thread."""
        if self._cost is not None and (where is None or where):
            self._cost.record_arithmetic(count)

    # -- allocation --------------------------------------------------------------------
    def shared(self, name: str, shape: Sequence[int], dtype=np.float64) -> DeviceBuffer:
        """Per-block shared memory, shared by all threads of the block."""
        if name not in self._shared_pool:
            self._shared_pool[name] = DeviceBuffer.allocate(
                shape, dtype=dtype, space="shared", label=f"shared:{name}"
            )
        return self._shared_pool[name]

    def local(self, shape: Sequence[int], dtype=np.float64, label: str = "local") -> DeviceBuffer:
        """Per-thread private memory."""
        return DeviceBuffer.allocate(shape, dtype=dtype, space="local", label=label)


@dataclass
class BlockRunStats:
    """Statistics of executing one block."""

    barriers: int = 0
    threads: int = 0


def _iter_indices(dim: Dim3) -> Iterable[Dim3]:
    for z in range(dim[2]):
        for y in range(dim[1]):
            for x in range(dim[0]):
                yield (x, y, z)


def run_block(
    kernel: Callable,
    args: Sequence[object],
    block_idx: Dim3,
    block_dim: Dim3,
    grid_dim: Dim3,
    cost: Optional[CostModel],
    races: Optional[RaceDetector],
    warp_size: int = 32,
) -> BlockRunStats:
    """Execute all threads of one block, respecting barriers."""
    shared_pool: Dict[str, DeviceBuffer] = {}
    contexts: List[ThreadCtx] = []
    generators: List[Optional[object]] = []
    stats = BlockRunStats(threads=block_dim[0] * block_dim[1] * block_dim[2])

    for thread_idx in _iter_indices(block_dim):
        ctx = ThreadCtx(
            thread_idx=thread_idx,
            block_idx=block_idx,
            block_dim=block_dim,
            grid_dim=grid_dim,
            cost=cost,
            races=races,
            shared_pool=shared_pool,
            warp_size=warp_size,
        )
        contexts.append(ctx)
        result = kernel(ctx, *args)
        generators.append(result if inspect.isgenerator(result) else None)

    live = [gen is not None for gen in generators]
    while any(live):
        was_live = list(live)
        reached_barrier = []
        for index, gen in enumerate(generators):
            if not live[index]:
                reached_barrier.append(False)
                continue
            try:
                next(gen)
                reached_barrier.append(True)
            except StopIteration:
                live[index] = False
                reached_barrier.append(False)
        if not any(reached_barrier):
            break
        # Every thread that was still running at the start of this round must
        # have reached the barrier; a mix of "finished" and "at barrier" (or a
        # thread that skipped the barrier) is barrier divergence.
        if not all(reached_barrier[i] for i, alive in enumerate(was_live) if alive):
            raise BarrierDivergenceError(
                f"barrier divergence in block {block_idx}: not all threads reached the barrier"
            )
        stats.barriers += 1
        if cost is not None:
            cost.record_barrier(1)
        for ctx in contexts:
            ctx.advance_epoch()
    return stats
