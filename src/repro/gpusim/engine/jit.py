"""The jit execution engine: codegen'd kernels + streaming exact accounting.

This engine runs plan-JIT kernels (straight-line Python emitted by
:mod:`repro.descend.plan.codegen`, registered with
:func:`~repro.gpusim.engine.base.jit_impl`) over the same grid-wide
:class:`~repro.gpusim.engine.vectorized.VecCtx` the vectorized engine uses —
the recording surface is identical, so cycle counts and race verdicts are
identical by construction.

For Descend programs the ``vectorized`` engine runs the same generated code,
so what makes this engine faster is its accounting: on the heavy bench rows
most of the vectorized wall-clock is the *end-of-launch analysis*
(``np.unique`` grouping over every recorded access in
:meth:`CostModel._batched_global_transactions` /
:meth:`RaceDetector._check_batches`).  The jit engine therefore substitutes
two parity-exact accounting implementations via the engine factory hooks
(:meth:`ExecutionEngine.make_cost` / :meth:`make_races`):

* :class:`JitCostModel` folds *uniform full-grid* batches (every lane
  active, all lanes at the same slot counter — the common case for
  straight-line plan code) into running totals **at record time** with one
  cheap per-warp-row pass, instead of buffering them for a global sort.
  Correctness: a full-grid batch at uniform slot ``s`` consumes slot ``s``
  of *every* lane, so its ``(block, warp, s)`` groups can never be joined by
  any other batch — per-batch group counts add exactly.  Non-qualifying
  (divergent) batches take the stock buffered path; the totals sum.
* :class:`JitRaceDetector` replaces the ~10 ``np.unique`` passes of the
  stock batched analysis with **one** sort of a packed
  ``(buffer, offset, block, epoch, thread)`` integer key, deriving every
  grouping from boundary flags on the single permutation.  Group identities,
  the dense-rank iteration order of racy locations, and the reported access
  pairs (via the inherited :meth:`RaceDetector._pair_for_location`) are all
  identical to the stock detector; keys that cannot pack into 63 bits fall
  back to the inherited analysis.
"""

from __future__ import annotations

import inspect
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.errors import LaunchConfigurationError
from repro.gpusim.cost import CostModel, CostParameters, KernelCost
from repro.gpusim.engine.base import Dim3, EngineStats, ExecutionEngine, resolve_jit
from repro.gpusim.engine.vectorized import VecCtx
from repro.gpusim.races import RaceDetector, RaceReport


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


class JitRaceDetector(RaceDetector):
    """Race detector whose batched analysis is one packed-key sort."""

    #: Packed keys must stay within int64 (sign bit spare).
    _MAX_KEY = 1 << 62

    def _check_batches(self, limit: int) -> List[RaceReport]:
        bid, off, roff, blk, thr, epo, wrt = self._batch_columns()
        key = self._packed_key((bid, off, blk, epo, thr))
        if key is None:
            return super()._check_batches(limit)

        order = np.argsort(key, kind="stable")
        b_s, o_s = bid[order], off[order]
        k_s, e_s, t_s = blk[order], epo[order], thr[order]

        # Boundary flags on the one sorted permutation give every grouping
        # the stock analysis builds with repeated np.unique passes.  The key
        # sorts lexicographically by (buffer, offset, block, epoch, thread),
        # so each refinement only adds its own column's changes.
        loc_start = np.ones(len(key), dtype=bool)
        loc_start[1:] = (b_s[1:] != b_s[:-1]) | (o_s[1:] != o_s[:-1])
        pair_start = loc_start.copy()
        pair_start[1:] |= k_s[1:] != k_s[:-1]
        group_start = pair_start.copy()
        group_start[1:] |= e_s[1:] != e_s[:-1]
        member_start = group_start.copy()
        member_start[1:] |= t_s[1:] != t_s[:-1]

        loc_ids_sorted = np.cumsum(loc_start) - 1
        n_locs = int(loc_ids_sorted[-1]) + 1
        group_ids_sorted = np.cumsum(group_start) - 1
        n_groups = int(group_ids_sorted[-1]) + 1

        w_s = wrt[order]
        has_write = np.zeros(n_locs, dtype=bool)
        has_write[loc_ids_sorted[w_s]] = True

        # Cross-block rule: >= 2 distinct blocks at one location + a write.
        blocks_per_loc = np.bincount(loc_ids_sorted[pair_start], minlength=n_locs)
        racy_locs = (blocks_per_loc >= 2) & has_write

        # Same-(block, epoch) rule: >= 2 distinct threads + a write.
        threads_per_group = np.bincount(group_ids_sorted[member_start], minlength=n_groups)
        group_has_write = np.zeros(n_groups, dtype=bool)
        group_has_write[group_ids_sorted[w_s]] = True
        racy_groups = (threads_per_group >= 2) & group_has_write
        loc_of_group = loc_ids_sorted[np.nonzero(group_start)[0]]
        racy_locs[loc_of_group[racy_groups]] = True

        if not racy_locs.any():
            return []

        labels = {batch.buffer_id: batch.buffer_label for batch in self._batches}

        def materialize(i: int):
            from repro.gpusim.races import RecordedAccess

            return RecordedAccess(
                buffer_id=int(bid[i]),
                offset=int(roff[i]),
                block=int(blk[i]),
                thread=int(thr[i]),
                epoch=int(epo[i]),
                is_write=bool(wrt[i]),
                buffer_label=labels.get(int(bid[i]), ""),
            )

        # Dense loc ids follow sorted (buffer, offset) order — the same order
        # row_group_ids assigns — so reports come out in the stock order; and
        # feeding _pair_for_location lanes in ascending record order makes
        # the chosen pairs identical too.
        reports: List[RaceReport] = []
        for loc in np.nonzero(racy_locs)[0]:
            lanes = np.sort(order[loc_ids_sorted == loc])
            pair = self._pair_for_location(lanes, blk, thr, epo, wrt)
            if pair is not None:
                reports.append(RaceReport(materialize(pair[0]), materialize(pair[1])))
            if len(reports) >= limit:
                break
        return reports

    @classmethod
    def _packed_key(cls, columns) -> Optional[np.ndarray]:
        """One int64 lexicographic key over ``columns`` (or ``None`` if it
        cannot pack: negative values or > 62 bits of combined range)."""
        key = np.zeros(len(columns[0]), dtype=np.int64)
        radix = 1
        for column in columns:
            column = np.asarray(column, dtype=np.int64)
            if column.size == 0 or int(column.min()) < 0:
                return None
            width = int(column.max()) + 1
            radix *= width  # exact Python-int arithmetic for the bound check
            if radix > cls._MAX_KEY:
                return None
            key = key * np.int64(width) + column
        return key


class JitEngine(ExecutionEngine):
    """Runs codegen'd plan kernels with streaming accounting."""

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
        impl = resolve_jit(kernel)
        if impl is None:
            name = getattr(kernel, "__name__", repr(kernel))
            raise LaunchConfigurationError(
                f"kernel `{name}` has no jit implementation; register one "
                "with @jit_impl or launch with execution_mode='reference'"
            )
        ctx = VecCtx(grid_dim, block_dim, cost=cost, races=races, warp_size=warp_size)
        result = impl(ctx, *tuple(args))
        if inspect.isgenerator(result):
            raise LaunchConfigurationError(
                "jit kernels must be plain functions that call ctx.sync(), not generators"
            )
        return EngineStats(barriers=ctx.barriers)

    def make_cost(
        self,
        params: CostParameters,
        grid_dim: Dim3,
        block_dim: Dim3,
        warp_size: int,
    ) -> CostModel:
        num_blocks = grid_dim[0] * grid_dim[1] * grid_dim[2]
        threads_per_block = block_dim[0] * block_dim[1] * block_dim[2]
        return JitCostModel(params, num_blocks, threads_per_block, warp_size)

    def make_races(self) -> RaceDetector:
        return JitRaceDetector()
