"""Dynamic data-race detection for the GPU simulator.

Every memory access performed by a kernel is recorded with the thread that
performed it and the barrier *epoch* it happened in.  Two accesses to the
same element race when

* they come from different threads,
* at least one of them is a write, and
* nothing orders them: either the threads are in different blocks (blocks are
  never synchronised during a kernel), or they are in the same block and the
  accesses happen in the same barrier epoch.

This is the dynamic counterpart of Descend's static access-safety check: the
handwritten buggy CUDA kernel of Listing 1 races *dynamically* here, while
the Descend type checker rejects the equivalent program *statically*.

Accesses arrive one at a time (:meth:`RaceDetector.record`, the per-thread
reference interpreter) or as whole numpy batches
(:meth:`RaceDetector.record_batch`, the vectorized and jit engines).  Every
engine's launch records into one :class:`RaceDetector`.  Batches are analysed
in :meth:`RaceDetector.check` by a sort-free pass: dense location ids, one
scatter/gather for the cross-block rule, and one representative thread per
location and epoch for the same-block rule.  Only the few locations that
actually race are materialised into :class:`RecordedAccess` objects for
reporting, in ascending ``(buffer_id, offset)`` order.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import DefaultDict, Dict, List, Optional, Tuple

import numpy as np

#: A buffer's offsets index its location arrays directly while their span is at
#: most this many slots per recorded access, or at most ``_SPAN_FLOOR``.
_SPAN_PER_ACCESS = 2
_SPAN_FLOOR = 1 << 12


@dataclass(frozen=True, slots=True)
class RecordedAccess:
    """A single dynamic access to one element of one buffer."""

    buffer_id: int
    offset: int
    block: int
    thread: int
    epoch: int
    is_write: bool
    buffer_label: str = ""


@dataclass(frozen=True)
class RaceReport:
    """Two dynamic accesses that form a data race."""

    first: RecordedAccess
    second: RecordedAccess

    def describe(self) -> str:
        buf = self.first.buffer_label or f"buffer {self.first.buffer_id}"
        return (
            f"data race on {buf}[{self.first.offset}]: "
            f"block {self.first.block} thread {self.first.thread} "
            f"({'write' if self.first.is_write else 'read'}, epoch {self.first.epoch}) vs "
            f"block {self.second.block} thread {self.second.thread} "
            f"({'write' if self.second.is_write else 'read'}, epoch {self.second.epoch})"
        )


@dataclass(frozen=True)
class _AccessBatch:
    """One vectorized operation: every array has one entry per active lane.

    ``offsets`` are the detector's grouping keys; ``report_offsets`` (when
    given) are the user-facing element offsets shown in race reports.  The
    vectorized engine rebases per-block shared memory to block-disjoint key
    offsets while reporting the true within-block offset.
    """

    buffer_id: int
    offsets: np.ndarray
    blocks: np.ndarray
    threads: np.ndarray
    epoch: int
    is_write: bool
    buffer_label: str = ""
    report_offsets: Optional[np.ndarray] = None


class RaceDetector:
    """Collects accesses of one kernel launch and reports data races."""

    def __init__(self, max_reports: int = 16) -> None:
        self._by_location: DefaultDict[Tuple[int, int], List[RecordedAccess]] = defaultdict(list)
        self._batches: List[_AccessBatch] = []
        self.max_reports = max_reports

    def record(self, access: RecordedAccess) -> None:
        self._by_location[(access.buffer_id, access.offset)].append(access)

    def record_batch(
        self,
        buffer_id: int,
        offsets: np.ndarray,
        blocks: np.ndarray,
        threads: np.ndarray,
        epoch: int,
        is_write: bool,
        buffer_label: str = "",
        report_offsets: Optional[np.ndarray] = None,
    ) -> None:
        """Record one vectorized operation (all lanes share epoch/direction)."""
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.size == 0:
            return
        self._batches.append(
            _AccessBatch(
                buffer_id=buffer_id,
                offsets=offsets,
                blocks=np.asarray(blocks, dtype=np.int64),
                threads=np.asarray(threads, dtype=np.int64),
                epoch=epoch,
                is_write=is_write,
                buffer_label=buffer_label,
                report_offsets=(
                    None if report_offsets is None else np.asarray(report_offsets, dtype=np.int64)
                ),
            )
        )

    @staticmethod
    def _conflict(a: RecordedAccess, b: RecordedAccess) -> bool:
        if not (a.is_write or b.is_write):
            return False
        if a.block == b.block and a.thread == b.thread:
            return False
        if a.block != b.block:
            return True
        return a.epoch == b.epoch

    @classmethod
    def _find_report(cls, accesses: List[RecordedAccess]) -> Optional[RaceReport]:
        """First conflicting (write, other) pair at one location, if any."""
        if len(accesses) < 2:
            return None
        writes = [a for a in accesses if a.is_write]
        # Compare writes against everything; this is O(w * n) per location,
        # which is fine for the element counts the interpreter handles.
        for write in writes:
            for other in accesses:
                if other is write:
                    continue
                if cls._conflict(write, other):
                    return RaceReport(write, other)
        return None

    def check(self) -> List[RaceReport]:
        """Return up to ``max_reports`` detected races."""
        reports: List[RaceReport] = []
        for accesses in self._by_location.values():
            if len(reports) >= self.max_reports:
                break
            report = self._find_report(accesses)
            if report is not None:
                reports.append(report)
        if self._batches and len(reports) < self.max_reports:
            reports.extend(self._check_batches(self.max_reports - len(reports)))
        return reports

    # -- batched analysis -------------------------------------------------------
    def _check_batches(self, limit: int) -> List[RaceReport]:
        """Sort-free race detection over all batches.

        A location ``(buffer, offset)`` races iff

        * accesses from >= 2 distinct blocks include a write (cross-block
          accesses are never ordered), or
        * within one ``(block, epoch)`` group, >= 2 distinct threads access it
          and at least one writes (nothing orders threads between barriers).

        Both rules run as scatter/gather passes over dense location ids
        (:meth:`_location_ids`).  The second keeps one representative thread
        per location and epoch instead of grouping by block as well: two
        threads of different blocks only meet at a location the first rule
        already flags, because the epoch's write makes it a written
        location touched by two blocks.
        """
        batches = self._batches
        sizes = np.array([len(batch.offsets) for batch in batches], dtype=np.int64)
        ends = np.cumsum(sizes)
        starts = ends - sizes
        locs = np.concatenate([batch.offsets for batch in batches])
        n_locs = self._location_ids(locs, starts, ends)
        blocks = np.concatenate([batch.blocks for batch in batches])
        threads = np.concatenate([batch.threads for batch in batches])

        # Cross-block: a written location where some access's block differs
        # from the block last scattered to that location.
        first_block = np.empty(n_locs, dtype=np.int64)
        first_block[locs] = blocks
        racy = np.zeros(n_locs, dtype=bool)
        racy[locs[blocks != first_block[locs]]] = True
        written = np.zeros(n_locs, dtype=bool)
        for batch, start, end in zip(batches, starts, ends):
            if batch.is_write:
                written[locs[start:end]] = True
        racy &= written

        # Same epoch: at the locations written in the epoch, >= 2 threads.
        epochs: Dict[int, List[int]] = {}
        for index, batch in enumerate(batches):
            epochs.setdefault(batch.epoch, []).append(index)
        tag = np.full(n_locs, -1, dtype=np.int64)
        representative = np.empty(n_locs, dtype=np.int64)
        for epoch_tag, members in enumerate(epochs.values()):
            writes = [i for i in members if batches[i].is_write]
            if not writes:
                continue
            for i in writes:
                tag[locs[starts[i]:ends[i]]] = epoch_tag
            lanes = np.concatenate([locs[starts[i]:ends[i]] for i in members])
            who = np.concatenate([threads[starts[i]:ends[i]] for i in members])
            hit = tag[lanes] == epoch_tag
            lanes, who = lanes[hit], who[hit]
            representative[lanes] = who
            racy[lanes[who != representative[lanes]]] = True

        if not racy.any():
            return []
        bid, roff, epo, wrt = self._batch_columns(sizes)
        labels = {batch.buffer_id: batch.buffer_label for batch in batches}

        def materialize(i: int) -> RecordedAccess:
            return RecordedAccess(
                buffer_id=int(bid[i]),
                offset=int(roff[i]),
                block=int(blocks[i]),
                thread=int(threads[i]),
                epoch=int(epo[i]),
                is_write=bool(wrt[i]),
                buffer_label=labels.get(int(bid[i]), ""),
            )

        # Location ids ascend with (buffer_id, offset), and so do the reports.
        reports: List[RaceReport] = []
        for loc in np.flatnonzero(racy):
            lanes = np.flatnonzero(locs == loc)
            pair = self._pair_for_location(lanes, blocks, threads, epo, wrt)
            if pair is not None:
                reports.append(RaceReport(materialize(pair[0]), materialize(pair[1])))
            if len(reports) >= limit:
                break
        return reports

    def _location_ids(self, locs: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> int:
        """Rewrite the concatenated offsets ``locs`` into location ids in place.

        Each buffer gets its own block of ids, buffers in ascending id order,
        so ids ascend with ``(buffer_id, offset)``.  Within a buffer the id is
        the offset minus the buffer's lowest one: a direct index whenever the
        span stays within ``_SPAN_PER_ACCESS`` slots per access (or
        ``_SPAN_FLOOR``).  A sparser buffer is ranked by ``np.unique`` instead,
        so the per-location arrays stay proportional to the accesses recorded.
        Returns the number of ids.
        """
        lows = np.minimum.reduceat(locs, starts)
        highs = np.maximum.reduceat(locs, starts)
        by_buffer: Dict[int, List[int]] = {}
        for index, batch in enumerate(self._batches):
            by_buffer.setdefault(batch.buffer_id, []).append(index)
        n_locs = 0
        for buffer_id in sorted(by_buffer):
            members = by_buffer[buffer_id]
            low = int(lows[members].min())
            span = int(highs[members].max()) - low + 1
            count = int((ends[members] - starts[members]).sum())
            if span <= max(_SPAN_PER_ACCESS * count, _SPAN_FLOOR):
                for i in members:
                    locs[starts[i]:ends[i]] += n_locs - low
                n_locs += span
                continue
            lanes = np.concatenate([np.arange(starts[i], ends[i]) for i in members])
            distinct, ranks = np.unique(locs[lanes], return_inverse=True)
            locs[lanes] = ranks.reshape(-1) + n_locs
            n_locs += distinct.size
        return n_locs

    def _batch_columns(self, sizes: np.ndarray):
        """Per-lane buffer id, report offset, epoch and direction (reports only)."""
        batches = self._batches
        bid = np.repeat([batch.buffer_id for batch in batches], sizes)
        roff = np.concatenate(
            [
                batch.offsets if batch.report_offsets is None else batch.report_offsets
                for batch in batches
            ]
        )
        epo = np.repeat([batch.epoch for batch in batches], sizes)
        wrt = np.repeat([batch.is_write for batch in batches], sizes)
        return bid, roff, epo, wrt

    @staticmethod
    def _pair_for_location(lanes, blk, thr, epo, wrt):
        """One conflicting (write, other) lane pair at a known-racy location.

        Mirrors the two rules of :meth:`_check_batches` exactly, so a pair is
        found whenever one of them flagged the location — no sampling.
        """
        write_lanes = lanes[wrt[lanes]]
        if write_lanes.size == 0:
            return None
        # Cross-block: any write conflicts with any access in another block.
        first_write = write_lanes[0]
        other_block = lanes[blk[lanes] != blk[first_write]]
        if other_block.size:
            return int(first_write), int(other_block[0])
        # Same block: a write and a different thread in the same epoch.
        for write in write_lanes:
            conflicting = lanes[(epo[lanes] == epo[write]) & (thr[lanes] != thr[write])]
            if conflicting.size:
                return int(write), int(conflicting[0])
        return None

    def access_count(self) -> int:
        scalar = sum(len(v) for v in self._by_location.values())
        batched = sum(len(batch.offsets) for batch in self._batches)
        return scalar + batched
