"""The analytic cost model of the GPU simulator.

The benchmark harness (Figure 8) compares *relative* kernel runtimes of
Descend-generated code against handwritten CUDA.  We therefore need a cost
model that rewards/punishes the same things real GPUs do, so that differences
in access patterns show up:

* **global memory**: accesses are grouped per warp and per static program
  position; each group costs one transaction per 128-byte segment touched
  (perfectly coalesced accesses of a 32-thread warp to consecutive 4/8-byte
  elements need 1–2 transactions, strided or transposed accesses up to 32),
* **shared memory**: per warp and program position, the cost is the maximum
  number of distinct addresses that map to the same of the 32 banks
  (bank-conflict serialisation),
* **arithmetic**: counted per thread and divided by the warp width,
* **barriers**: a fixed cost per barrier per block.

The absolute numbers are synthetic; the *ratios* between two kernels with the
same access patterns are ≈ 1, which is the property Figure 8 reports.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import DefaultDict, Dict, Iterable, List, Tuple

import numpy as np

from repro.gpusim.grouping import group_representatives, row_group_ids


@dataclass(frozen=True)
class CostParameters:
    """Latency/throughput parameters of the synthetic device (in cycles)."""

    global_transaction_cost: float = 32.0
    global_segment_bytes: int = 128
    shared_access_cost: float = 2.0
    shared_banks: int = 32
    shared_bank_width: int = 4
    arithmetic_cost: float = 1.0
    barrier_cost: float = 16.0
    launch_overhead: float = 500.0
    warp_size: int = 32
    #: how many memory transactions the device can overlap (memory parallelism)
    memory_parallelism: float = 8.0
    #: how many warps execute concurrently (compute parallelism)
    compute_parallelism: float = 16.0


@dataclass
class MemoryAccess:
    """One recorded memory access (already reduced to what the model needs)."""

    block: int
    warp: int
    slot: int
    address: int
    is_write: bool
    space: str


@dataclass
class KernelCost:
    """Aggregated cost of one kernel launch."""

    global_transactions: int = 0
    global_accesses: int = 0
    shared_cycles: float = 0.0
    shared_accesses: int = 0
    arithmetic_ops: int = 0
    barriers: int = 0
    blocks: int = 0
    threads_per_block: int = 0
    cycles: float = 0.0

    def summary(self) -> Dict[str, float]:
        return {
            "cycles": self.cycles,
            "global_transactions": self.global_transactions,
            "global_accesses": self.global_accesses,
            "shared_accesses": self.shared_accesses,
            "shared_cycles": self.shared_cycles,
            "arithmetic_ops": self.arithmetic_ops,
            "barriers": self.barriers,
        }


class CostModel:
    """Accumulates memory accesses / arithmetic and converts them into cycles.

    Accesses arrive through one of two equivalent paths:

    * :meth:`record_access` — one :class:`MemoryAccess` at a time (the
      per-thread reference interpreter),
    * :meth:`record_access_batch` — numpy arrays covering one vector operation
      of the vectorized and jit engines.

    Both paths produce bit-identical cycle counts: the batched path evaluates
    the same per-``(block, warp, slot)`` grouping with
    :func:`~repro.gpusim.grouping.row_group_ids` instead of Python
    dictionaries.  Launches record into the subclass
    :class:`~repro.gpusim.engine.jit.JitCostModel`, which folds uniform
    full-grid batches into running totals as they arrive; only divergent
    batches reach this class's buffered batched path.
    """

    def __init__(self, params: CostParameters = CostParameters()) -> None:
        self.params = params
        self._global: DefaultDict[Tuple[int, int, int], List[MemoryAccess]] = defaultdict(list)
        self._shared: DefaultDict[Tuple[int, int, int], List[MemoryAccess]] = defaultdict(list)
        self._global_batches: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        self._shared_batches: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        self._arithmetic = 0
        self._barriers = 0

    # -- recording -------------------------------------------------------------
    def record_access(self, access: MemoryAccess) -> None:
        key = (access.block, access.warp, access.slot)
        if access.space == "global":
            self._global[key].append(access)
        elif access.space == "shared":
            self._shared[key].append(access)
        # private/local accesses are register-like: folded into arithmetic cost
        else:
            self._arithmetic += 1

    def record_access_batch(
        self,
        blocks: np.ndarray,
        warps: np.ndarray,
        slots: np.ndarray,
        addresses: np.ndarray,
        is_write: bool,
        space: str,
    ) -> None:
        """Record one vectorized operation: parallel arrays of equal length.

        ``addresses`` are byte addresses (``offset * element_size``), matching
        what :meth:`record_access` receives via :class:`MemoryAccess`.
        """
        count = len(addresses)
        if count == 0:
            return
        batch = (
            np.asarray(blocks, dtype=np.int64),
            np.asarray(warps, dtype=np.int64),
            np.asarray(slots, dtype=np.int64),
            np.asarray(addresses, dtype=np.int64),
        )
        if space == "global":
            self._global_batches.append(batch)
        elif space == "shared":
            self._shared_batches.append(batch)
        else:
            self._arithmetic += count

    def record_arithmetic(self, count: int = 1) -> None:
        self._arithmetic += count

    def record_barrier(self, count: int = 1) -> None:
        self._barriers += count

    # -- evaluation --------------------------------------------------------------
    def _global_transactions(self) -> int:
        transactions = 0
        segment = self.params.global_segment_bytes
        for accesses in self._global.values():
            segments = {access.address // segment for access in accesses}
            transactions += len(segments)
        return transactions

    def _shared_cycles(self) -> float:
        cycles = 0.0
        banks = self.params.shared_banks
        width = self.params.shared_bank_width
        for accesses in self._shared.values():
            per_bank: DefaultDict[int, set] = defaultdict(set)
            for access in accesses:
                bank = (access.address // width) % banks
                per_bank[bank].add(access.address)
            conflict_factor = max((len(addresses) for addresses in per_bank.values()), default=0)
            cycles += self.params.shared_access_cost * max(conflict_factor, 1 if accesses else 0)
        return cycles

    @staticmethod
    def _concat_batches(batches) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return tuple(np.concatenate([batch[i] for batch in batches]) for i in range(4))

    def _batched_global_transactions(self) -> int:
        """Distinct ``(block, warp, slot, segment)`` tuples over all batches.

        Summing per-group distinct segments (the dict-based path) equals
        counting globally distinct group+segment tuples.
        """
        if not self._global_batches:
            return 0
        blocks, warps, slots, addresses = self._concat_batches(self._global_batches)
        segments = addresses // self.params.global_segment_bytes
        _, transactions = row_group_ids(blocks, warps, slots, segments)
        return transactions

    def _batched_shared_cycles(self) -> float:
        """Bank-conflict serialisation over batched accesses (same formula)."""
        if not self._shared_batches:
            return 0.0
        blocks, warps, slots, addresses = self._concat_batches(self._shared_batches)
        banks = (addresses // self.params.shared_bank_width) % self.params.shared_banks
        warp_ids, n_warp_groups = row_group_ids(blocks, warps, slots)
        bank_ids, n_bank_groups = row_group_ids(warp_ids, banks)
        warp_of_bank = group_representatives(bank_ids, n_bank_groups, warp_ids)
        # distinct addresses per (warp group, bank) ...
        addr_ids, n_addr_groups = row_group_ids(bank_ids, addresses)
        bank_of_addr = group_representatives(addr_ids, n_addr_groups, bank_ids)
        per_bank_counts = np.bincount(bank_of_addr, minlength=n_bank_groups)
        # ... and the worst bank per warp group serialises the warp
        conflict = np.zeros(n_warp_groups, dtype=np.int64)
        np.maximum.at(conflict, warp_of_bank, per_bank_counts)
        return float(self.params.shared_access_cost * conflict.sum())

    def finalize(self, blocks: int, threads_per_block: int) -> KernelCost:
        """Convert the recorded events into a kernel cost estimate."""
        params = self.params
        global_transactions = self._global_transactions() + self._batched_global_transactions()
        shared_cycles = self._shared_cycles() + self._batched_shared_cycles()
        global_accesses = sum(len(v) for v in self._global.values())
        global_accesses += sum(len(batch[3]) for batch in self._global_batches)
        shared_accesses = sum(len(v) for v in self._shared.values())
        shared_accesses += sum(len(batch[3]) for batch in self._shared_batches)

        global_cycles = global_transactions * params.global_transaction_cost / params.memory_parallelism
        arithmetic_cycles = (
            self._arithmetic * params.arithmetic_cost / (params.warp_size * params.compute_parallelism)
        )
        barrier_cycles = self._barriers * params.barrier_cost
        cycles = (
            params.launch_overhead
            + global_cycles
            + shared_cycles / params.compute_parallelism
            + arithmetic_cycles
            + barrier_cycles
        )
        return KernelCost(
            global_transactions=global_transactions,
            global_accesses=global_accesses,
            shared_cycles=shared_cycles,
            shared_accesses=shared_accesses,
            arithmetic_ops=self._arithmetic,
            barriers=self._barriers,
            blocks=blocks,
            threads_per_block=threads_per_block,
            cycles=cycles,
        )
