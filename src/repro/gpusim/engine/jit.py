"""The jit execution engine and the streaming cost model every launch uses.

The ``jit`` engine is a second name for the lockstep runner
(:func:`~repro.gpusim.engine.vectorized.run_lockstep`) that the
``vectorized`` engine uses, so the two run every launch identically: a
Descend kernel as its generated plan source (straight-line Python emitted by
:mod:`repro.descend.plan.codegen`), a CUDA-lite kernel as written.

:class:`JitCostModel` is the cost model :meth:`GpuDevice.launch
<repro.gpusim.device.GpuDevice.launch>` builds for every launch, whatever the
engine.  It folds *uniform full-grid* batches (every lane active, all lanes at
the same slot counter — the common case for straight-line code) into running
totals **at record time** with one cheap per-warp-row pass, instead of
buffering them for a global grouping.  Correctness: a full-grid batch at
uniform slot ``s`` consumes slot ``s`` of *every* lane, so its
``(block, warp, s)`` groups can never be joined by any other batch — per-batch
group counts add exactly.  Every other batch (masked, mixed-slot, or in a
launch whose blocks hold a partial warp) takes
:class:`~repro.gpusim.cost.CostModel`'s buffered path; the totals sum.  The
reference engine records through the scalar paths only, so its results are
those of the plain ``CostModel``.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.gpusim.cost import CostModel, CostParameters, KernelCost
from repro.gpusim.engine.base import Dim3, EngineStats, ExecutionEngine
from repro.gpusim.engine.vectorized import run_lockstep
from repro.gpusim.races import RaceDetector


class JitCostModel(CostModel):
    """Cost model with a streaming fast path for uniform full-grid batches."""

    def __init__(
        self,
        params: CostParameters,
        num_blocks: int,
        threads_per_block: int,
        warp_size: int,
    ) -> None:
        super().__init__(params)
        self._num_threads = num_blocks * threads_per_block
        self._warp_size = warp_size
        # Warp rows must tile the batch exactly for the reshape(-1, warp)
        # trick to reproduce the (block, warp) grouping.
        self._streaming_ok = (
            warp_size > 0 and threads_per_block % warp_size == 0 and self._num_threads > 0
        )
        self._fast_global_transactions = 0
        self._fast_global_accesses = 0
        self._fast_shared_conflicts = 0
        self._fast_shared_accesses = 0

    # -- recording -------------------------------------------------------------
    def record_access_batch(self, blocks, warps, slots, addresses, is_write, space) -> None:
        if (
            self._streaming_ok
            and space in ("global", "shared")
            and len(addresses) == self._num_threads
        ):
            slots = np.asarray(slots)
            if slots.size and (slots == slots[0]).all():
                addresses = np.asarray(addresses, dtype=np.int64)
                if space == "global":
                    self._fast_global_transactions += self._uniform_global(addresses)
                    self._fast_global_accesses += int(addresses.size)
                else:
                    self._fast_shared_conflicts += self._uniform_shared(addresses)
                    self._fast_shared_accesses += int(addresses.size)
                return
        super().record_access_batch(blocks, warps, slots, addresses, is_write, space)

    def _uniform_global(self, addresses: np.ndarray) -> int:
        """Distinct 128-byte segments per warp row, summed over the grid."""
        segments = addresses // self.params.global_segment_bytes
        rows = np.sort(segments.reshape(-1, self._warp_size), axis=1)
        if rows.shape[1] <= 1:
            return rows.shape[0]
        distinct = 1 + np.count_nonzero(rows[:, 1:] != rows[:, :-1], axis=1)
        return int(distinct.sum())

    def _uniform_shared(self, addresses: np.ndarray) -> int:
        """Worst-bank distinct-address count per warp row, summed (conflicts)."""
        params = self.params
        rows = addresses.reshape(-1, self._warp_size)
        n_rows = rows.shape[0]
        banks = (rows // params.shared_bank_width) % params.shared_banks
        # One sortable key per lane: (bank, address) packed so that sorting a
        # row groups each bank's addresses contiguously.
        key = banks * (np.int64(1) << np.int64(40)) + rows
        key = np.sort(key, axis=1)
        new_pair = np.ones_like(key, dtype=bool)
        if key.shape[1] > 1:
            new_pair[:, 1:] = key[:, 1:] != key[:, :-1]
        sorted_banks = key >> np.int64(40)
        flat = np.arange(n_rows, dtype=np.int64)[:, None] * params.shared_banks + sorted_banks
        counts = np.bincount(flat[new_pair], minlength=n_rows * params.shared_banks)
        conflict = counts.reshape(n_rows, params.shared_banks).max(axis=1)
        return int(conflict.sum())

    # -- evaluation ------------------------------------------------------------
    # The streaming totals fold in through the two batched-analysis seams so
    # finalize()'s formula (and float evaluation order) stays untouched; all
    # fast totals are integers, so the sums are float-exact.
    def _batched_global_transactions(self) -> int:
        return super()._batched_global_transactions() + self._fast_global_transactions

    def _batched_shared_cycles(self) -> float:
        return super()._batched_shared_cycles() + float(
            self.params.shared_access_cost * self._fast_shared_conflicts
        )

    def finalize(self, blocks: int, threads_per_block: int) -> KernelCost:
        result = super().finalize(blocks, threads_per_block)
        result.global_accesses += self._fast_global_accesses
        result.shared_accesses += self._fast_shared_accesses
        return result


class JitEngine(ExecutionEngine):
    """Runs a launch through the same lockstep runner as ``vectorized``."""

    name = "jit"

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
