"""The content-addressed artifact store (CAS): policy over a pluggable backend.

The store maps hex digests to pickled compiler artifacts.  Since PR 10 the
*where* of blobs and index lives behind a :class:`~repro.descend.store.backend.StoreBackend`
(local directory or the daemon's HTTP store endpoint — see that module for
the layout and wire protocol); this class keeps the *policy*, unchanged:

* **Content addressing.**  Objects are immutable and named by the digest the
  compiler derives from the artifact's *inputs* (source hash / AST pickle +
  artifact kind), so concurrent writers of the same compilation write the
  same bytes to the same name — last write wins, both are correct.

* **Crash/corruption safety.**  Reads trust nothing: a truncated,
  corrupted, or unreadable blob is treated as a miss, never an error — the
  caller falls back to a cold compile.  Corrupt blobs are *quarantined*
  (moved aside and counted) rather than silently re-degrading every later
  lookup; a corrupted index is rebuilt by listing the (authoritative)
  blobs.  The hot I/O seams (blob read/write/rename, index flock, HTTP
  get/put) carry named :mod:`repro.faults` injection points, so the chaos
  suite exercises these paths with real injected failures.

* **Concurrency.**  Index mutations go through the backend's
  ``index_update`` — a flock-held read-modify-write on a local directory,
  a rev-guarded compare-and-swap loop against the daemon's single-writer
  HTTP endpoint.  Blob reads take no lock (immutable names); a reader
  racing an eviction simply misses.

* **Eviction.**  The index records a last-used stamp per entry; when the
  store exceeds ``max_bytes``, least-recently-used entries are evicted
  until it fits (:meth:`ArtifactStore.gc`, also run after every write).

* **Self-invalidation.**  The store pins the
  :func:`~repro.descend.store.fingerprint.pipeline_fingerprint` of the
  compiler that filled it.  Opening a *local* store written by a different
  compiler build (or Python version, or store format) wipes it; attaching
  to a mismatched *remote* store refuses loudly instead (the server owns
  its data) — either way stale artifacts can never leak across compiler
  changes.
"""

from __future__ import annotations

import os
import pickle
import time
from typing import Dict, Optional, Tuple

from repro.descend.store.backend import (
    LocalDirBackend,
    StoreBackend,
    backend_for,
    is_store_url,
)
from repro.descend.store.fingerprint import STORE_FORMAT, pipeline_fingerprint

#: Default size bound of a store: plenty for every Figure 8 artifact while
#: staying far below what a CI cache is willing to persist.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: Pinned pickle wire protocol (participates in the schema fingerprint).
PICKLE_PROTOCOL = 4

class ArtifactStore:
    """A persistent, size-bounded, multi-process-safe artifact cache.

    It is a pure cache: every operation degrades to a miss (``load`` →
    ``None``, ``store`` → ``False``) instead of raising, so a broken disk,
    a hostile blob, or a racing process can never take compilation down
    with it.  ``root`` may be a directory path or an ``http(s)://`` URL of
    a ``descendc serve --store-http`` endpoint.
    """

    def __init__(
        self,
        root: os.PathLike | str,
        max_bytes: int = DEFAULT_MAX_BYTES,
        schema: Optional[str] = None,
        backend: Optional[StoreBackend] = None,
    ) -> None:
        self.max_bytes = max(0, int(max_bytes))
        self.schema = schema if schema is not None else pipeline_fingerprint()
        self.backend = backend if backend is not None else backend_for(root, self.schema)
        self.root = (
            self.backend.root
            if isinstance(self.backend, LocalDirBackend)
            else self.backend.location
        )
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.evictions = 0
        self.errors = 0
        self.quarantined = 0
        self._pending_touches: Dict[str, float] = {}
        self._touch_flushed = False
        self.backend.ensure_ready()

    # -- layout passthrough (tests and tools reach into local-dir stores) ------
    def _object_path(self, digest: str):
        return self.backend._object_path(digest)  # type: ignore[union-attr]

    # -- index policy ----------------------------------------------------------
    @staticmethod
    def _is_digest(name: str) -> bool:
        return len(name) == 64 and all(c in "0123456789abcdef" for c in name)

    def _sanitize_entries(
        self, raw: Optional[Dict[str, object]]
    ) -> Optional[Dict[str, Dict[str, object]]]:
        """Field-by-field validation of a raw entry table, ``None`` if unusable.

        A JSON-valid index with wrong-typed fields (hand edits, foreign
        tools) must degrade like any other corruption, not raise
        ``ValueError`` out of the numeric conversions downstream (eviction
        sorts, size sums)."""
        if not isinstance(raw, dict):
            return None
        entries: Dict[str, Dict[str, object]] = {}
        for digest, entry in raw.items():
            if not (isinstance(digest, str) and self._is_digest(digest)):
                continue
            if not isinstance(entry, dict):
                continue
            try:
                entries[digest] = {
                    "size": int(entry.get("size", 0)),
                    "used": float(entry.get("used", 0.0)),
                    "kind": str(entry.get("kind", "artifact")),
                }
            except (TypeError, ValueError):
                entries[digest] = {"size": 0, "used": 0.0, "kind": "artifact"}
        if not entries and raw:
            return None
        return entries

    def _usable_entries(
        self, raw: Optional[Dict[str, object]]
    ) -> Dict[str, Dict[str, object]]:
        """Sanitized entries (rebuilt from blobs if unusable), pending LRU
        stamps applied."""
        entries = self._sanitize_entries(raw)
        if entries is None:
            entries = self._rebuild_entries()
        for digest, stamp in self._pending_touches.items():
            entry = entries.get(digest)
            if entry is not None and stamp > float(entry.get("used", 0.0)):
                entry["used"] = stamp
        return entries

    def _rebuild_entries(self) -> Dict[str, Dict[str, object]]:
        """Recover the entry table from the (authoritative) blob listing.

        Only digest-named blobs count: orphaned staging files from a writer
        killed mid-write must not be adopted as entries (their digest would
        never resolve back to their path) — the backend's listing already
        enforces this."""
        now = time.time()
        entries: Dict[str, Dict[str, object]] = {}
        try:
            blobs = self.backend.list_blobs()
        except OSError:
            return entries
        for digest, size in blobs.items():
            entries[digest] = {"size": int(size), "used": now, "kind": "artifact"}
        return entries

    def _read_entries(self) -> Dict[str, Dict[str, object]]:
        _, raw = self.backend.index_read()
        return self._usable_entries(raw)

    def _evict_over_budget(
        self, entries: Dict[str, Dict[str, object]], keep: Optional[str] = None
    ) -> None:
        """Drop least-recently-used entries until the store fits its budget."""
        total = sum(int(entry.get("size", 0)) for entry in entries.values())
        if total <= self.max_bytes:
            return
        by_age = sorted(entries, key=lambda d: float(entries[d].get("used", 0.0)))
        for digest in by_age:
            if total <= self.max_bytes:
                break
            if digest == keep:
                continue
            total -= int(entries[digest].get("size", 0))
            del entries[digest]
            try:
                self.backend.blob_delete(digest)
            except OSError:  # pragma: no cover - eviction is best-effort
                pass
            self.evictions += 1

    # -- public API ------------------------------------------------------------
    def load(self, digest: str) -> Optional[object]:
        """The artifact stored under ``digest``, or ``None`` on any failure."""
        try:
            blob = self.backend.blob_get(digest)
        except OSError:
            # The disk, the network, or an injected fault refused the read:
            # a transient I/O problem, not proof the blob is poisoned — miss
            # without quarantining so a healthy retry can still hit.
            self.errors += 1
            self.misses += 1
            return None
        if blob is None:
            self.misses += 1
            return None
        try:
            artifact = pickle.loads(blob)
        except Exception:
            # Truncated blob, corrupted pickle, unimportable class, … — the
            # store is a cache, so treat every failure as a miss, and move
            # the poisoned blob aside so every later lookup of this digest
            # is a plain miss (heal-on-next-write) instead of another
            # read-and-fail degradation.
            self.errors += 1
            self.misses += 1
            self._quarantine(digest)
            return None
        self.hits += 1
        self._touch(digest)
        return artifact

    def store(self, digest: str, artifact: object, kind: str = "artifact") -> bool:
        """Persist ``artifact`` under ``digest``; ``False`` on any failure."""
        try:
            blob = pickle.dumps(artifact, protocol=PICKLE_PROTOCOL)
        except Exception:
            return False  # unpicklable artifacts simply stay in-memory-only
        stamp = time.time()

        def add_entry(raw: Optional[Dict[str, object]]) -> Dict[str, Dict[str, object]]:
            entries = self._usable_entries(raw)
            entries[digest] = {"size": len(blob), "used": stamp, "kind": kind}
            self._evict_over_budget(entries, keep=digest)
            return entries

        try:
            self.backend.blob_put(digest, blob)
            self.backend.index_update(add_entry)
        except OSError:
            self.errors += 1
            return False
        self._pending_touches.clear()
        self.writes += 1
        return True

    #: Batch size after which pending LRU stamps are flushed to the index.
    TOUCH_FLUSH_PENDING = 16
    #: Age after which a staging file counts as left behind by a dead writer.
    TMP_STALE_S = 3600.0

    def _touch(self, digest: str) -> None:
        """Refresh the LRU stamp of a hit.

        Stamps are batched in memory and merged into the index by every
        index write (:meth:`_usable_entries` applies them, a successful
        update clears them), so a warm process does one index rewrite on
        its first hit — which also heals a corrupted index — and then one
        per :data:`TOUCH_FLUSH_PENDING` loads, instead of one per load.
        """
        self._pending_touches[digest] = time.time()
        if not self._touch_flushed or len(self._pending_touches) >= self.TOUCH_FLUSH_PENDING:
            self._flush_touches()

    def _flush_touches(self) -> None:
        try:
            self.backend.index_update(self._usable_entries)
        except OSError:
            self.errors += 1
            return
        self._pending_touches.clear()
        self._touch_flushed = True

    def _quarantine(self, digest: str) -> None:
        """Move a poisoned blob aside and drop its index entry (best-effort).

        Move-aside instead of delete: the digest becomes a plain miss (the
        degradation happens once, not on every lookup), the next write of
        the same digest heals it, and the corrupt bytes stay inspectable
        under the backend's quarantine until :meth:`gc` ages them out.
        """
        self.quarantined += 1
        try:
            self.backend.blob_quarantine(digest)
        except OSError:
            pass
        self._drop_entry(digest)

    def _drop_entry(self, digest: str) -> None:
        def remove(raw: Optional[Dict[str, object]]) -> Dict[str, Dict[str, object]]:
            entries = self._usable_entries(raw)
            entries.pop(digest, None)
            return entries

        try:
            self.backend.index_update(remove)
        except OSError:  # pragma: no cover
            self.errors += 1
            return
        self._pending_touches.clear()

    def quarantine_entries(self) -> int:
        """How many poisoned blobs are currently parked in quarantine."""
        return self.backend.quarantine_count()

    def gc(
        self,
        max_bytes: Optional[int] = None,
        quarantine_age_s: Optional[float] = None,
    ) -> Dict[str, object]:
        """Reconcile the index with the blobs and enforce the size budget.

        Orphaned blobs (present in the backend, absent from the index) are
        adopted, dangling entries (indexed, blob gone) dropped, stray files
        (foreign junk, stale staging files from killed writers) deleted,
        quarantined blobs older than ``quarantine_age_s`` (default:
        :data:`TMP_STALE_S`) removed, then LRU
        eviction brings the store under ``max_bytes`` (default: the store's
        budget).
        """
        if max_bytes is not None:
            self.max_bytes = max(0, int(max_bytes))
        if quarantine_age_s is None:
            quarantine_age_s = self.TMP_STALE_S
        self.backend.maintain(self.TMP_STALE_S, max(0.0, float(quarantine_age_s)))

        def reconcile(raw: Optional[Dict[str, object]]) -> Dict[str, Dict[str, object]]:
            entries = self._usable_entries(raw)
            on_disk = self._rebuild_entries()
            for digest in list(entries):
                if digest not in on_disk:
                    del entries[digest]
            for digest, entry in on_disk.items():
                if digest not in entries:
                    entries[digest] = entry
                else:
                    entries[digest]["size"] = entry["size"]
            self._evict_over_budget(entries)
            return entries

        entries = self.backend.index_update(reconcile)
        self._pending_touches.clear()
        return self._summary(entries)

    def clear(self) -> None:
        """Delete every artifact (the layout and schema stay in place)."""
        self.backend.wipe()
        self.backend.index_update(lambda raw: {})
        self._pending_touches.clear()

    def digests(self, kind: Optional[str] = None) -> Tuple[str, ...]:
        """The digests currently indexed, optionally filtered by artifact kind.

        Sorted for determinism (replay consumers iterate this).  Like every
        other read, failures degrade to "nothing found" rather than raising.
        """
        try:
            entries = self._read_entries()
        except OSError:
            self.errors += 1
            return ()
        if kind is None:
            return tuple(sorted(entries))
        return tuple(
            sorted(
                digest
                for digest, entry in entries.items()
                if str(entry.get("kind", "artifact")) == kind
            )
        )

    def stats(self) -> Dict[str, object]:
        entries = self._read_entries()
        summary = self._summary(entries)
        summary.update(
            hits=self.hits,
            misses=self.misses,
            writes=self.writes,
            evictions=self.evictions,
            errors=self.errors,
            quarantined=self.quarantined,
            quarantine_entries=self.quarantine_entries(),
        )
        return summary

    def _summary(self, entries: Dict[str, Dict[str, object]]) -> Dict[str, object]:
        kinds: Dict[str, Dict[str, int]] = {}
        for entry in entries.values():
            kind = str(entry.get("kind", "artifact"))
            bucket = kinds.setdefault(kind, {"count": 0, "bytes": 0})
            bucket["count"] += 1
            bucket["bytes"] += int(entry.get("size", 0))
        return {
            "root": str(self.root),
            "backend": self.backend.kind,
            "format": STORE_FORMAT,
            "schema": self.schema[:16],
            "entries": len(entries),
            "total_bytes": sum(int(entry.get("size", 0)) for entry in entries.values()),
            "max_bytes": self.max_bytes,
            "kinds": kinds,
        }


__all__ = [
    "ArtifactStore",
    "DEFAULT_MAX_BYTES",
    "PICKLE_PROTOCOL",
    "is_store_url",
]
