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
from dataclasses import dataclass
from typing import DefaultDict, Dict, Iterable, List, Tuple

import numpy as np

#: Folded keys stay below this bound, so no product of spans overflows int64.
_KEY_LIMIT = 1 << 62


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
    the same per-``(block, warp, slot)`` grouping with one folded int64 key
    per access (:func:`_fold`) and one sort per memory space instead of
    Python dictionaries.  Launches record into the subclass
    :class:`~repro.gpusim.engine.jit.JitCostModel`, which folds uniform
    full-grid batches into running totals as they arrive; the rest (masked,
    mixed-slot, or in blocks with a partial warp) reach this buffered path.
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
        key, _ = _fold((blocks, warps, slots, segments))
        key.sort()
        return int(_run_starts(key).size)

    def _batched_shared_cycles(self) -> float:
        """Bank-conflict serialisation over batched accesses (same formula).

        Once the ``(group, bank, address)`` keys are sorted, ``group`` being
        ``(block, warp, slot)``, a run of equal group and bank holds the
        bank's distinct addresses, and each group's worst bank serialises the
        warp.  Exact while ``accesses ** 2 * banks < 2 ** 62``.
        """
        if not self._shared_batches:
            return 0.0
        params = self.params
        blocks, warps, slots, addresses = self._concat_batches(self._shared_batches)
        banks = (addresses // params.shared_bank_width) % params.shared_banks
        group, _ = _fold((blocks, warps, slots))
        if (int(group.max()) + 1) * params.shared_banks * group.size >= _KEY_LIMIT:
            group, _ = _rank(group)
        key, (_, n_banks, n_addresses) = _fold((group, banks, addresses))
        key.sort()
        distinct = key[_run_starts(key)]
        bank_key = distinct // n_addresses
        bank_starts = _run_starts(bank_key)
        per_bank = np.diff(bank_starts, append=distinct.size)
        worst = np.maximum.reduceat(per_bank, _run_starts(bank_key[bank_starts] // n_banks))
        return float(params.shared_access_cost * worst.sum())

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


def _rank(values: np.ndarray) -> Tuple[np.ndarray, int]:
    """Dense, order-preserving ranks of ``values`` and the number of ranks."""
    distinct, ranks = np.unique(values, return_inverse=True)
    return ranks.reshape(-1), int(distinct.size)


def _fold(columns: Iterable[np.ndarray]) -> Tuple[np.ndarray, List[int]]:
    """One int64 key per row that sorts and groups rows like their tuples.

    Each column is offset by its minimum and scaled by its span, with no
    sort.  A column that would push the product of spans to ``_KEY_LIMIT``
    is replaced by its dense rank, and the running key too if that is not
    enough: ranks keep the order and the row count bounds them, so every
    int64 input stays exact.  Returns the key and each column's span.
    """
    key, n_keys, spans = None, 1, []
    for column in columns:
        low = int(column.min())
        span = int(column.max()) - low + 1
        if n_keys * span >= _KEY_LIMIT:
            (column, span), low = _rank(column), 0
            if n_keys * span >= _KEY_LIMIT:
                key, n_keys = _rank(key)
        if key is None:
            key = column - low
        else:  # in place: the running key is always a fresh array
            key *= span
            key += column
            key -= low
        n_keys *= span
        spans.append(span)
    return key, spans


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Where each run of equal values in the sorted ``values`` starts."""
    return np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
