"""The warp-vectorized execution engine.

Instead of interpreting every thread as its own Python generator, this engine
executes *all threads of the whole grid in lockstep*: ``threadIdx`` /
``blockIdx`` are numpy index arrays with one entry per thread, memory
accesses are bulk gathers/scatters through the flat buffer storage, and the
cost model / race detector receive whole-operation batches
(:meth:`CostModel.record_access_batch`, :meth:`RaceDetector.record_batch`)
instead of one Python call per thread per access.

Parity with the reference engine is exact, not approximate:

* every thread keeps its own *slot* counter (the per-thread access index that
  the cost model groups coalescing decisions by), advanced only for lanes
  active under the current ``where=`` mask — exactly like inactive threads
  of a divergent branch in the reference engine;
* barriers advance one epoch for the whole grid and record one barrier per
  block, matching the per-block accounting of :func:`run_block`;
* shared memory is stored as one ``(blocks, size)`` array and local memory
  as one ``(threads, size)`` array; the cost model sees within-block byte
  addresses (bank conflicts are per block) while the race detector sees
  block-disjoint shared offsets (so cross-block false positives are
  impossible, mirroring the per-block buffers of the reference engine).

:func:`run_lockstep` is the one runner of this engine and of the ``jit``
engine.  It calls the kernel once with a grid-wide :class:`VecCtx`, so a
per-thread CUDA-lite kernel runs as written.  A kernel with barriers is a
generator with a ``yield`` where CUDA calls ``__syncthreads()``, and each
``yield`` becomes one ``ctx.sync()``.  Plan kernels generated from Descend
programs call ``ctx.sync()`` themselves.  A kernel whose threads branch on
their own index passes the condition as the ``where=`` predicate of each
load, store and ``arith`` call, which both :class:`VecCtx` and the reference
engine's :class:`~repro.gpusim.launch.ThreadCtx` accept.  A plain ``if`` on
an index cannot run in lockstep: numpy refuses the truth value of an index
array, so such a launch raises rather than return a result.
By construction every block reaches every ``sync()`` — barrier divergence
cannot be expressed, which is why the reference engine remains the semantic
baseline for arbitrary kernels.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Union

import numpy as np

from repro.errors import DeviceMemoryError
from repro.gpusim.buffer import DeviceBuffer, next_buffer_id
from repro.gpusim.cost import CostModel
from repro.gpusim.engine.base import Dim3, EngineStats, ExecutionEngine
from repro.gpusim.launch import Index3
from repro.gpusim.races import RaceDetector


@dataclass
class VecIndex3:
    """A CUDA-style 3D index whose components are per-thread numpy arrays."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray


class VecStackedBuffer:
    """Shared or local memory of one launch, one row per block or thread.

    ``data[r, i]`` is element ``i`` of row ``r``'s copy: a row per block for
    ``space="shared"``, a row per (global) thread for ``space="local"``.
    ``size`` is the per-row element count (what kernels index against).  The
    reference engine allocates one :class:`~repro.gpusim.buffer.DeviceBuffer`
    per block or per thread; one of these stands for all of them.
    """

    def __init__(self, rows: int, shape: Sequence[int], dtype, space: str, label: str) -> None:
        self.shape = tuple(int(s) for s in shape) or (1,)
        if any(s <= 0 for s in self.shape):
            raise DeviceMemoryError(f"invalid {space} buffer shape {self.shape}")
        self.size = int(math.prod(self.shape))
        self.dtype = np.dtype(dtype)
        self.data = np.zeros((rows, self.size), dtype=self.dtype)
        self.space = space
        self.label = label
        self.buffer_id = next_buffer_id()

    @property
    def element_size(self) -> int:
        return int(self.data.itemsize)


class VecCtx:
    """Grid-wide execution context handed to vectorized kernels.

    ``threadIdx`` / ``blockIdx`` components are arrays of length
    :attr:`num_threads` (all threads of all blocks, block-major, x fastest
    within a block — the same enumeration order as the reference engine);
    ``blockDim`` / ``gridDim`` stay scalar :class:`Index3` values.
    """

    def __init__(
        self,
        grid_dim: Dim3,
        block_dim: Dim3,
        cost: Optional[CostModel],
        races: Optional[RaceDetector],
        warp_size: int = 32,
    ) -> None:
        gx, gy, gz = grid_dim
        bx, by, bz = block_dim
        self.num_blocks = gx * gy * gz
        self.threads_per_block = bx * by * bz
        self.num_threads = self.num_blocks * self.threads_per_block

        lin_thread = np.tile(np.arange(self.threads_per_block, dtype=np.int64), self.num_blocks)
        lin_block = np.repeat(np.arange(self.num_blocks, dtype=np.int64), self.threads_per_block)
        self.threadIdx = VecIndex3(lin_thread % bx, (lin_thread // bx) % by, lin_thread // (bx * by))
        self.blockIdx = VecIndex3(lin_block % gx, (lin_block // gx) % gy, lin_block // (gx * gy))
        self.blockDim = Index3(*block_dim)
        self.gridDim = Index3(*grid_dim)

        self.linear_thread_id = lin_thread
        self.linear_block_id = lin_block
        self.global_thread_id = lin_block * self.threads_per_block + lin_thread
        self.warp_id = lin_thread // warp_size

        self._cost = cost
        self._races = races
        self._epoch = 0
        self._barriers = 0
        self._slots = np.zeros(self.num_threads, dtype=np.int64)
        self._shared_pool: Dict[str, VecStackedBuffer] = {}

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def barriers(self) -> int:
        return self._barriers

    # -- helpers -------------------------------------------------------------------
    def _per_thread(self, values, name: str) -> np.ndarray:
        array = np.asarray(values)
        if array.ndim == 0:
            return np.broadcast_to(array, (self.num_threads,))
        if array.shape != (self.num_threads,):
            raise DeviceMemoryError(
                f"per-thread {name} must be scalar or have shape ({self.num_threads},), "
                f"got {array.shape}"
            )
        return array

    def _activate(self, offsets, where):
        offsets = self._per_thread(offsets, "offsets").astype(np.int64, copy=False)
        if where is None:
            return offsets, None
        mask = self._per_thread(where, "mask").astype(bool, copy=False)
        return offsets, mask

    def _record(
        self,
        buffer: Union[DeviceBuffer, VecStackedBuffer],
        offsets: np.ndarray,
        mask: Optional[np.ndarray],
        is_write: bool,
    ):
        """Bounds-check and record the active lanes; returns (offsets, rows).

        ``rows`` is the first index into stacked per-block (shared) or
        per-thread (local) storage, and ``None`` for flat global buffers.
        """
        if mask is None:
            active_offsets = offsets
            blocks = self.linear_block_id
            warps = self.warp_id
            threads = self.linear_thread_id
            slots = self._slots.copy()
            self._slots += 1
        else:
            active_offsets = offsets[mask]
            blocks = self.linear_block_id[mask]
            warps = self.warp_id[mask]
            threads = self.linear_thread_id[mask]
            slots = self._slots[mask]
            self._slots[mask] += 1
        if buffer.space == "shared":
            rows: Optional[np.ndarray] = blocks
        elif buffer.space == "local":
            rows = self.global_thread_id if mask is None else self.global_thread_id[mask]
        else:
            rows = None
        if active_offsets.size == 0:
            return active_offsets, rows
        lowest = int(active_offsets.min())
        highest = int(active_offsets.max())
        if lowest < 0 or highest >= buffer.size:
            bad = lowest if lowest < 0 else highest
            raise DeviceMemoryError(
                f"out-of-bounds access at offset {bad} of buffer "
                f"{buffer.label or buffer.buffer_id} (size {buffer.size})"
            )
        if self._cost is not None:
            self._cost.record_access_batch(
                blocks=blocks,
                warps=warps,
                slots=slots,
                addresses=active_offsets * buffer.element_size,
                is_write=is_write,
                space=buffer.space,
            )
        if self._races is not None and buffer.space in ("global", "shared"):
            if buffer.space == "shared":
                # Per-block copies live at disjoint key offsets so the
                # detector's cross-block rule can never fire between two
                # blocks' copies; reports still show the within-block offset.
                race_offsets = blocks * buffer.size + active_offsets
                report_offsets = active_offsets
            else:
                race_offsets = active_offsets
                report_offsets = None
            self._races.record_batch(
                buffer_id=buffer.buffer_id,
                offsets=race_offsets,
                blocks=blocks,
                threads=threads,
                epoch=self._epoch,
                is_write=is_write,
                buffer_label=buffer.label,
                report_offsets=report_offsets,
            )
        return active_offsets, rows

    # -- memory ---------------------------------------------------------------------
    def load(
        self,
        buffer: Union[DeviceBuffer, VecStackedBuffer],
        offsets,
        where=None,
    ) -> np.ndarray:
        """Gather one element per (active) thread; inactive lanes read as 0."""
        offsets, mask = self._activate(offsets, where)
        active_offsets, rows = self._record(buffer, offsets, mask, is_write=False)
        if mask is None:
            if rows is not None:
                return buffer.data[rows, active_offsets]
            return buffer.data[active_offsets]
        out = np.zeros(self.num_threads, dtype=buffer.dtype)
        if active_offsets.size:
            out[mask] = buffer.data[rows, active_offsets] if rows is not None else buffer.data[active_offsets]
        return out

    def store(
        self,
        buffer: Union[DeviceBuffer, VecStackedBuffer],
        offsets,
        values,
        where=None,
    ) -> None:
        """Scatter one element per (active) thread."""
        offsets, mask = self._activate(offsets, where)
        active_offsets, rows = self._record(buffer, offsets, mask, is_write=True)
        if active_offsets.size == 0:
            return
        values = np.asarray(values)
        if values.ndim != 0:
            values = self._per_thread(values, "values")
            values = values if mask is None else values[mask]
        if rows is not None:
            buffer.data[rows, active_offsets] = values
        else:
            buffer.data[active_offsets] = values

    def arith(self, count: int = 1, where=None) -> None:
        """Account for ``count`` arithmetic instructions per (active) thread."""
        if self._cost is None:
            return
        if where is None:
            active = self.num_threads
        else:
            active = int(np.count_nonzero(self._per_thread(where, "mask")))
        if active:
            self._cost.record_arithmetic(int(count) * active)

    # -- synchronisation ---------------------------------------------------------------
    def sync(self) -> None:
        """Block-wide barrier (``__syncthreads()``) for every block at once."""
        self._barriers += self.num_blocks
        if self._cost is not None:
            self._cost.record_barrier(self.num_blocks)
        self._epoch += 1

    # -- allocation --------------------------------------------------------------------
    def shared(self, name: str, shape: Sequence[int], dtype=np.float64) -> VecStackedBuffer:
        """Per-block shared memory (one stacked copy per block)."""
        if name not in self._shared_pool:
            self._shared_pool[name] = VecStackedBuffer(
                self.num_blocks, shape, dtype, "shared", label=f"shared:{name}"
            )
        return self._shared_pool[name]

    def local(self, shape: Sequence[int], dtype=np.float64, label: str = "local") -> VecStackedBuffer:
        """Per-thread private memory (one stacked copy per thread of the grid)."""
        return VecStackedBuffer(self.num_threads, shape, dtype, "local", label=label)


def run_lockstep(
    kernel: Callable,
    args: Sequence[object],
    grid_dim: Dim3,
    block_dim: Dim3,
    cost: Optional[CostModel],
    races: Optional[RaceDetector],
    warp_size: int = 32,
) -> EngineStats:
    """Run every thread of a launch in lockstep over one :class:`VecCtx`.

    Runs the kernel as written and drives a generator kernel with one
    ``ctx.sync()`` per ``yield``.
    """
    ctx = VecCtx(grid_dim, block_dim, cost=cost, races=races, warp_size=warp_size)
    result = kernel(ctx, *args)
    if inspect.isgenerator(result):
        for _ in result:
            ctx.sync()
    return EngineStats(barriers=ctx.barriers)


class VectorizedEngine(ExecutionEngine):
    """Runs the whole grid in lockstep over numpy index arrays."""

    name = "vectorized"

    def run(
        self,
        kernel: Callable,
        args: Sequence[object],
        grid_dim: Dim3,
        block_dim: Dim3,
        cost: Optional[CostModel],
        races: Optional[RaceDetector],
        warp_size: int = 32,
    ) -> EngineStats:
        return run_lockstep(kernel, args, grid_dim, block_dim, cost, races, warp_size)
