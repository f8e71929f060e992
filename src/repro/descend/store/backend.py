"""Pluggable I/O backends of the content-addressed artifact store.

:class:`~repro.descend.store.cas.ArtifactStore` is the *policy* layer —
pickling, LRU eviction, quarantine decisions, counters, never-raise
degradation.  This module is the *mechanism* layer underneath it: where
blobs and the index actually live.  A :class:`StoreBackend` exposes the
five primitive surfaces the policy layer needs:

* blob get/put/delete (content-addressed, so puts are idempotent),
* index read / compare-and-swap / update (a monotonically increasing
  ``rev`` guards every swap; an update hands the policy layer an
  :class:`IndexTable` to change in place, and the backend persists the
  change),
* blob listing (index rebuild + gc reconcile),
* maintenance sweeps (stale tmp files, aged-out quarantine),
* a ``stat`` handshake (format + schema fingerprint) so a client can
  refuse a store written by a different compiler build *before* touching
  any data.

Two implementations ship:

:class:`LocalDirBackend`
    A directory: ``objects/ab/<digest>`` blobs, ``tempfile + os.replace``
    atomic writes staged under ``tmp/``, an ``fcntl.flock`` on
    ``<root>/lock``, and an index kept as a snapshot plus an append-only
    log.  It overrides :meth:`StoreBackend.index_update` so that, under the
    flock, a change appends one line to the log instead of rewriting the
    whole index (the ``store.index.flock`` and ``store.index.append``
    fault seams sit on this path).

:class:`HttpBackend`
    A thin HTTP/1.1 client (stdlib ``http.client``, keep-alive) for the
    store endpoint the ``descendc serve`` daemon exposes (see
    :mod:`repro.descend.serve.storehttp`).  Index swaps become
    ``PUT /v1/index`` guarded by ``expect_rev`` — the daemon's
    single-writer executor is the serialization point, so the default
    CAS loop in :meth:`StoreBackend.index_update` is all the client
    needs.  Every request carries bounded retry with reconnect, and the
    ``store.http.get`` / ``store.http.put`` fault seams inject failures
    *inside* that retry loop, so chaos rules with ``nth=1`` heal exactly
    like a real dropped response.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import tempfile
import time
import urllib.parse
from pathlib import Path
from typing import Callable, Dict, Optional, Set, Tuple

from repro import faults
from repro.descend.store.fingerprint import STORE_FORMAT

try:  # pragma: no cover - POSIX everywhere we run; degrade gracefully elsewhere
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "IndexTable",
    "StoreBackend",
    "LocalDirBackend",
    "HttpBackend",
    "backend_for",
    "is_store_url",
]

#: Wire protocol version of the HTTP store endpoint (path prefix ``/v1``).
HTTP_PROTOCOL_VERSION = 1

#: Largest blob/index body the HTTP endpoint and client will accept.
MAX_HTTP_BODY_BYTES = 64 * 1024 * 1024


def _log_header(gen: str) -> bytes:
    """The first line of an index log that continues snapshot ``gen``."""
    return json.dumps({"gen": gen}, separators=(",", ":")).encode("utf-8") + b"\n"


def is_store_url(location: object) -> bool:
    """Whether ``location`` names a remote HTTP store rather than a directory."""
    return str(location).startswith(("http://", "https://"))


def backend_for(location: os.PathLike | str, schema: str) -> "StoreBackend":
    """The backend matching ``location``: a directory path or an HTTP URL."""
    if is_store_url(location):
        return HttpBackend(str(location), schema)
    return LocalDirBackend(Path(location), schema)


def _sanitize_entries(raw: object) -> Optional[Dict[str, Dict[str, object]]]:
    """Field-by-field validation of a parsed entry table, ``None`` if unusable.

    A JSON-valid index with wrong-typed fields (hand edits, foreign tools)
    must degrade like any other corruption, not raise ``ValueError`` out of
    the numeric conversions downstream (eviction sorts, size sums)."""
    if not isinstance(raw, dict):
        return None
    entries: Dict[str, Dict[str, object]] = {}
    for digest, entry in raw.items():
        if not (isinstance(digest, str) and LocalDirBackend._is_digest(digest)):
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


class IndexTable:
    """A store index in memory: its sanitized entries, ``rev``, the running
    total of entry sizes, and the change the current update makes.

    ``entries`` is ``None`` while the index is unusable (unreadable, or a
    malformed log line); the policy layer then rebuilds it from the blobs
    with :meth:`replace`.  :meth:`put`, :meth:`drop` and :meth:`stamp` keep
    ``total`` equal to the sum of the entry sizes and record a delta that
    :meth:`change` encodes as one log record; after :meth:`replace` the
    backend rewrites the whole table instead.
    """

    __slots__ = ("entries", "rev", "total", "replaced", "_put", "_drop", "_used")

    def __init__(self, entries: Optional[Dict[str, Dict[str, object]]], rev: int) -> None:
        self.rev = rev
        self.replace(entries)
        self.begin()

    def begin(self) -> None:
        """Start recording the change of one update."""
        self.replaced = False
        self._put: Dict[str, Dict[str, object]] = {}
        self._drop: Set[str] = set()
        self._used: Dict[str, float] = {}

    def replace(self, entries: Optional[Dict[str, Dict[str, object]]]) -> None:
        self.entries = entries
        self.total = sum(entry["size"] for entry in entries.values()) if entries else 0
        self.replaced = True

    def put(self, digest: str, size: int, used: float, kind: str) -> None:
        old = self.entries.get(digest)
        if old is not None:
            self.total -= old["size"]
        entry = {"size": size, "used": used, "kind": kind}
        self.entries[digest] = entry
        self.total += size
        self._put[digest] = entry
        self._drop.discard(digest)
        self._used.pop(digest, None)

    def drop(self, digest: str) -> None:
        entry = self.entries.pop(digest, None)
        if entry is None:
            return
        self.total -= entry["size"]
        self._put.pop(digest, None)
        self._used.pop(digest, None)
        self._drop.add(digest)

    def stamp(self, digest: str, used: float) -> None:
        """Raise an entry's last-used stamp (absent entries are ignored)."""
        entry = self.entries.get(digest)
        if entry is not None and used > entry["used"]:
            entry["used"] = used
            if digest not in self._put:  # a put records its entry's final stamp
                self._used[digest] = used

    def change(self) -> Dict[str, object]:
        """The recorded delta as one log record (empty if nothing changed)."""
        record: Dict[str, object] = {}
        if self._put:
            record["put"] = self._put
        if self._drop:
            record["drop"] = sorted(self._drop)
        if self._used:
            record["used"] = self._used
        return record

    def apply(self, record: object) -> bool:
        """Replay one log record; ``False`` if it is malformed."""
        if not isinstance(record, dict):
            return False
        put, drop, used = record.get("put", {}), record.get("drop", []), record.get("used", {})
        if not (isinstance(put, dict) and isinstance(drop, list) and isinstance(used, dict)):
            return False
        for digest, entry in (_sanitize_entries(put) or {}).items():
            self.put(digest, **entry)
        for digest in drop:
            if isinstance(digest, str):
                self.drop(digest)
        for digest, stamp in used.items():
            if isinstance(stamp, (int, float)):
                self.stamp(digest, float(stamp))
        return True


class StoreBackend:
    """Primitive blob/index I/O under an :class:`ArtifactStore`.

    Error contract (what the policy layer relies on):

    * ``blob_get`` returns ``None`` for a missing digest and raises
      :class:`OSError` for transient I/O trouble — the caller decides
      whether a failure is a miss, an error, or grounds for quarantine.
    * ``index_read`` returns ``(rev, entries_or_None)``; ``None`` means
      the index is unreadable/corrupt and the caller should rebuild from
      :meth:`list_blobs`.  It never invents an empty table for a corrupt
      one.
    * ``index_swap`` returns ``False`` (not an exception) when the rev
      moved underneath the caller; everything else that fails raises
      :class:`OSError`.
    * Entries are sanitized where their bytes are parsed: ``index_read``
      hands back ``{digest: {"size": int, "used": float, "kind": str}}``.
    """

    #: Human-readable backend family (``local-dir`` / ``http``), surfaced
    #: in ``cache stats`` output.
    kind = "abstract"

    #: Where this store lives (directory path or URL), for messages/stats.
    location = ""

    #: Bound on the optimistic read-modify-write loop: contention past
    #: this degrades to a failed (not blocked) store operation.
    INDEX_UPDATE_ATTEMPTS = 8

    def ensure_ready(self) -> None:
        raise NotImplementedError

    def blob_get(self, digest: str) -> Optional[bytes]:
        raise NotImplementedError

    def blob_put(self, digest: str, data: bytes) -> None:
        raise NotImplementedError

    def blob_delete(self, digest: str) -> None:
        raise NotImplementedError

    def blob_quarantine(self, digest: str) -> None:
        raise NotImplementedError

    def quarantine_count(self) -> int:
        raise NotImplementedError

    def list_blobs(self) -> Dict[str, int]:
        raise NotImplementedError

    def index_read(self) -> Tuple[int, Optional[Dict[str, object]]]:
        raise NotImplementedError

    def index_swap(self, expect_rev: int, entries: Dict[str, object]) -> bool:
        raise NotImplementedError

    def index_update(self, mutate: Callable[[IndexTable], None]) -> IndexTable:
        """Atomically apply ``mutate`` to the index; the updated table.

        ``mutate`` changes the :class:`IndexTable` it is handed in place
        (its ``entries`` are ``None`` if the index is unusable).  The
        default is an optimistic CAS loop over read + swap — correct
        against any number of concurrent writers as long as swaps are
        rev-guarded.  :class:`LocalDirBackend` overrides it to append the
        change to its log under the flock.
        """
        for _ in range(self.INDEX_UPDATE_ATTEMPTS):
            rev, entries = self.index_read()
            table = IndexTable(entries, rev)
            mutate(table)
            if self.index_swap(rev, table.entries):
                return table
        raise OSError(
            f"index update lost {self.INDEX_UPDATE_ATTEMPTS} swap races at {self.location}"
        )

    def maintain(self, tmp_stale_s: float, quarantine_age_s: float) -> None:
        raise NotImplementedError

    def wipe(self) -> None:
        raise NotImplementedError

    def stat(self) -> Dict[str, object]:
        raise NotImplementedError


class LocalDirBackend(StoreBackend):
    """A store in a local directory, indexed by a snapshot plus a log.

    Layout under the root::

        <root>/
            schema.json          # {"format": 2, "schema": "<fingerprint>"}
            index.json           # snapshot: {"gen": G, "rev": N, "entries": {digest: {...}}}
            index.log            # header {"gen": G}, then one JSON record per index change
            lock                 # fcntl advisory lock serializing index reads and writes
            objects/ab/abcdef…   # one pickle blob per artifact, named by digest
            tmp/                 # in-flight atomic-write staging
            quarantine/          # corrupt blobs moved aside, aged out by gc

    The index is the snapshot with the log's records replayed over it: a
    record puts entries, drops digests and raises LRU stamps, and each one
    adds 1 to the snapshot's ``rev``.  Each backend keeps the replayed
    table in memory.  Under the flock it reads only the log bytes appended
    since its last read; it reloads the snapshot only when the log's header
    names a generation ``G`` other than the one it read, which means
    another process compacted (a random token, since a rewrite can reuse
    an inode, a size or an mtime).  A change appends one record; a replaced
    table (:meth:`index_swap`, gc, clear, a rebuild from the blobs) or a
    log grown past the snapshot's size is compacted instead: a new
    snapshot, then a new log, each written atomically under a new ``G``.
    So a put costs O(1) amortized.

    A last line without its newline is a writer killed mid-append: readers
    skip it and the next writer truncates it.  A malformed complete line,
    or an unreadable snapshot, makes the index unusable, and the policy
    layer rebuilds it from the blobs.  A writer killed between the two
    renames of a compaction leaves a snapshot that no log header names.  A
    backend that reads it afresh takes the snapshot alone and compacts on
    its next write; one that had read the old log may append to it until
    then, and those entries drop out of the index (their blobs stay, and
    gc adopts them).  Nothing is ``fsync``-ed.
    """

    kind = "local-dir"

    def __init__(self, root: Path, schema: str) -> None:
        self.root = Path(root)
        self.schema = schema
        self.location = str(root)
        # The index as of this backend's last read under the flock (None:
        # not read yet), and where that read stopped in the log.
        self._table: Optional[IndexTable] = None
        self._header = b""  # the header line of the log the table follows
        self._offset = 0  # log bytes replayed into the table: its complete lines
        self._appendable = False  # the log continues the snapshot
        self._snapshot_bytes = 0

    # -- layout ----------------------------------------------------------------
    @property
    def _objects_dir(self) -> Path:
        return self.root / "objects"

    @property
    def _index_path(self) -> Path:
        return self.root / "index.json"

    @property
    def _log_path(self) -> Path:
        return self.root / "index.log"

    @property
    def _schema_path(self) -> Path:
        return self.root / "schema.json"

    @property
    def _tmp_dir(self) -> Path:
        # In-flight writes stage here, *outside* objects/, so maintenance's
        # stray-file sweep can never delete a tmp file a concurrent writer
        # is about to os.replace into place (same filesystem, so the rename
        # stays atomic).
        return self.root / "tmp"

    @property
    def _quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def _object_path(self, digest: str) -> Path:
        return self._objects_dir / digest[:2] / digest

    @staticmethod
    def _is_digest(name: str) -> bool:
        return len(name) == 64 and all(c in "0123456789abcdef" for c in name)

    def ensure_ready(self) -> None:
        self._objects_dir.mkdir(parents=True, exist_ok=True)
        self._tmp_dir.mkdir(parents=True, exist_ok=True)
        with self._locked():
            if not self._schema_matches():
                self._wipe_objects_locked()
                self._compact_locked(IndexTable({}, 0))
                self._write_json(
                    self._schema_path,
                    {"format": STORE_FORMAT, "schema": self.schema},
                )

    def _schema_matches(self) -> bool:
        try:
            with open(self._schema_path, "r", encoding="utf-8") as handle:
                meta = json.load(handle)
            return (
                isinstance(meta, dict)
                and meta.get("format") == STORE_FORMAT
                and meta.get("schema") == self.schema
            )
        except (OSError, ValueError):
            return False

    # -- locking ---------------------------------------------------------------
    @contextlib.contextmanager
    def _locked(self):
        """Hold the store's advisory lock (no-op where flock is unavailable)."""
        if fcntl is None:  # pragma: no cover
            yield
            return
        faults.maybe_raise("store.index.flock")
        lock_path = self.root / "lock"
        with open(lock_path, "a+b") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    # -- atomic writes ---------------------------------------------------------
    def _write_json(self, path: Path, payload: Dict[str, object]) -> int:
        data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        self._atomic_write(path, data)
        return len(data)

    def _atomic_write(self, path: Path, data: bytes, is_blob: bool = False) -> None:
        self._tmp_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=str(self._tmp_dir), prefix=".tmp-")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            if is_blob:
                faults.maybe_raise("store.blob.rename")
            os.replace(tmp_name, path)
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
            raise

    # -- blobs -----------------------------------------------------------------
    def blob_get(self, digest: str) -> Optional[bytes]:
        try:
            with open(self._object_path(digest), "rb") as handle:
                rule = faults.maybe_raise("store.blob.read")
                blob = handle.read()
        except FileNotFoundError:
            return None
        if rule is not None and rule.kind == "torn":
            blob = blob[: len(blob) // 2]
        return blob

    def blob_put(self, digest: str, data: bytes) -> None:
        rule = faults.maybe_raise("store.blob.write")
        if rule is not None and rule.kind == "torn":
            # A torn write: the rename lands, but the bytes are cut short —
            # the on-disk image a crash between write and fsync leaves
            # behind.  The next load quarantines it.
            data = data[: len(data) // 2]
        path = self._object_path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        self._atomic_write(path, data, is_blob=True)

    def blob_delete(self, digest: str) -> None:
        with contextlib.suppress(FileNotFoundError):
            self._object_path(digest).unlink()

    def blob_quarantine(self, digest: str) -> None:
        source = self._object_path(digest)
        try:
            self._quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(source, self._quarantine_dir / digest)
        except OSError:
            # Can't move it aside (readonly dir, cross-device, gone already):
            # fall back to deleting so the poison at least can't re-degrade.
            with contextlib.suppress(OSError):
                source.unlink()

    def quarantine_count(self) -> int:
        try:
            return sum(1 for path in self._quarantine_dir.glob("*") if path.is_file())
        except OSError:  # pragma: no cover
            return 0

    def list_blobs(self) -> Dict[str, int]:
        blobs: Dict[str, int] = {}
        for path in self._objects_dir.rglob("*"):
            if path.is_file() and self._is_digest(path.name):
                with contextlib.suppress(OSError):
                    blobs[path.name] = path.stat().st_size
        return blobs

    # -- index -----------------------------------------------------------------
    def _load_locked(self, header: bytes) -> None:
        """Reset the cached table to the snapshot, read under log ``header``."""
        rev, entries, gen, size = 0, None, None, 0
        try:
            data = self._index_path.read_bytes()
            size = len(data)
            snapshot = json.loads(data)
        except (OSError, ValueError):
            snapshot = None
        if isinstance(snapshot, dict):
            rev = snapshot.get("rev", 0)
            if not isinstance(rev, int) or rev < 0:
                rev = 0
            entries = _sanitize_entries(snapshot.get("entries"))
            gen = snapshot.get("gen")
        self._table = IndexTable(entries, rev)
        self._header, self._offset, self._snapshot_bytes = header, len(header), size
        self._appendable = (
            entries is not None and isinstance(gen, str) and header == _log_header(gen)
        )

    def _sync_locked(self) -> IndexTable:
        """The index as the files hold it now, no change recorded (flock held)."""
        try:
            with open(self._log_path, "rb") as handle:
                header = handle.readline()
                if self._table is None or header != self._header:
                    self._load_locked(header)
                handle.seek(self._offset)
                tail = handle.read() if self._appendable else b""
        except FileNotFoundError:
            if self._table is None or self._header:
                self._load_locked(b"")
            tail = b""
        end = tail.rfind(b"\n") + 1  # a torn last line stays unread
        table = self._table
        for line in tail[:end].splitlines():
            try:
                record = json.loads(line)
            except ValueError:
                record = None
            if not table.apply(record):
                table.replace(None)
                self._appendable = False
                break
            table.rev += 1
        self._offset += end
        table.begin()
        return table

    def _append_locked(self, record: Dict[str, object]) -> None:
        line = json.dumps(record, separators=(",", ":")).encode("utf-8") + b"\n"
        rule = faults.maybe_raise("store.index.append")
        with open(self._log_path, "ab") as handle:
            handle.truncate(self._offset)  # drop a torn last line, if any
            if rule is not None and rule.kind == "torn":
                # A writer killed mid-append: half a line, no newline.  This
                # backend rereads the index next time, as a new process would.
                handle.write(line[: len(line) // 2])
                self._table = None
                return
            handle.write(line)
        self._offset += len(line)
        self._table.rev += 1

    def _compact_locked(self, table: IndexTable) -> None:
        """Write ``table`` as a new snapshot and start an empty log after it."""
        gen = os.urandom(8).hex()
        size = self._write_json(
            self._index_path, {"gen": gen, "rev": table.rev, "entries": table.entries}
        )
        header = _log_header(gen)
        self._atomic_write(self._log_path, header)
        self._table, self._header, self._offset = table, header, len(header)
        self._snapshot_bytes, self._appendable = size, True

    def index_read(self) -> Tuple[int, Optional[Dict[str, object]]]:
        with self._locked():
            table = self._sync_locked()
            if table.entries is None:
                return table.rev, None
            return table.rev, {digest: dict(entry) for digest, entry in table.entries.items()}

    def index_swap(self, expect_rev: int, entries: Dict[str, object]) -> bool:
        with self._locked():
            if self._sync_locked().rev != expect_rev:
                return False
            self._commit_locked(lambda table: table.replace(_sanitize_entries(entries) or {}))
            return True

    def index_update(self, mutate: Callable[[IndexTable], None]) -> IndexTable:
        # Under the flock, so no retry loop to exhaust under contention.
        with self._locked():
            self._sync_locked()
            return self._commit_locked(mutate)

    def _commit_locked(self, mutate: Callable[[IndexTable], None]) -> IndexTable:
        """Apply ``mutate`` to the synced table and persist its change: one
        appended record, or a compaction after a replace."""
        table = self._table
        try:
            mutate(table)
            if table.replaced or not self._appendable:
                table.rev += 1
                self._compact_locked(table)
                return table
            record = table.change()
            if record:
                self._append_locked(record)
                if self._table is table and self._offset > self._snapshot_bytes:
                    self._compact_locked(table)
        except BaseException:
            self._table = None  # the cached table may be ahead of the files
            raise
        return table

    # -- maintenance -----------------------------------------------------------
    def maintain(self, tmp_stale_s: float, quarantine_age_s: float) -> None:
        now = time.time()
        for path in self._objects_dir.rglob("*"):
            if path.is_file() and not self._is_digest(path.name):
                with contextlib.suppress(OSError):
                    path.unlink()
        # Staging files are only swept once stale: a live writer's tmp file
        # (pre-os.replace) must survive a concurrent maintenance pass.
        tmp_before = now - tmp_stale_s
        for path in self._tmp_dir.glob("*"):
            with contextlib.suppress(OSError):
                if path.is_file() and path.stat().st_mtime < tmp_before:
                    path.unlink()
        # Quarantined blobs age out on their own schedule: kept long enough
        # to debug a corruption burst, never accumulated forever.
        quarantine_before = now - quarantine_age_s
        if self._quarantine_dir.is_dir():
            for path in self._quarantine_dir.glob("*"):
                with contextlib.suppress(OSError):
                    if path.is_file() and path.stat().st_mtime < quarantine_before:
                        path.unlink()

    def wipe(self) -> None:
        self._wipe_objects_locked()

    def _wipe_objects_locked(self) -> None:
        for path in self._objects_dir.rglob("*"):
            if path.is_file():
                with contextlib.suppress(OSError):
                    path.unlink()

    def stat(self) -> Dict[str, object]:
        rev, _ = self.index_read()
        return {
            "format": STORE_FORMAT,
            "schema": self.schema,
            "rev": rev,
            "quarantine": self.quarantine_count(),
        }


class HttpBackend(StoreBackend):
    """Client of the daemon's HTTP store endpoint.

    One persistent keep-alive connection, reconnected on any transport
    failure; every request retries up to :data:`RETRY_ATTEMPTS` times with
    a small exponential backoff.  The ``store.http.get`` (reads: blob GET,
    index GET, listing, stat) and ``store.http.put`` (writes: blob PUT,
    index swap, delete, maintenance) fault seams fire *inside* the retry
    loop — an injected drop consumes one attempt exactly like a real lost
    response, so single-shot chaos rules heal transparently.

    Attachment is loud: construction performs a ``GET /v1/stat`` handshake
    and raises :class:`OSError` if the server is unreachable or was filled
    by a different compiler build.  Unlike the local backend, a schema
    mismatch never wipes the remote store — the server owns its data; the
    client simply refuses to use it.
    """

    kind = "http"

    #: Transport-level retry bound per request (attempt, reconnect, retry).
    RETRY_ATTEMPTS = 3
    #: Base of the exponential backoff between attempts.
    RETRY_BASE_DELAY_S = 0.02

    def __init__(self, url: str, schema: str, timeout_s: float = 30.0) -> None:
        parsed = urllib.parse.urlsplit(url)
        if parsed.scheme not in ("http", "https") or not parsed.hostname:
            raise OSError(f"not a store URL: {url!r}")
        self.location = url.rstrip("/")
        self.schema = schema
        self._https = parsed.scheme == "https"
        self._host = parsed.hostname
        self._port = parsed.port or (443 if self._https else 80)
        self._prefix = parsed.path.rstrip("/")
        self._timeout_s = timeout_s
        self._conn: Optional[http.client.HTTPConnection] = None

    # -- transport -------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            factory = (
                http.client.HTTPSConnection if self._https else http.client.HTTPConnection
            )
            self._conn = factory(self._host, self._port, timeout=self._timeout_s)
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            with contextlib.suppress(Exception):
                self._conn.close()
            self._conn = None

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        site: Optional[str] = None,
    ) -> Tuple[int, bytes]:
        """One store RPC: ``(status, body)``, with bounded retry.

        Raises :class:`OSError` once every attempt has failed at the
        transport level; HTTP-level error statuses are returned for the
        caller to interpret (404 is a perfectly good answer).
        """
        last_error: Optional[BaseException] = None
        for attempt in range(self.RETRY_ATTEMPTS):
            if attempt:
                time.sleep(self.RETRY_BASE_DELAY_S * (2 ** (attempt - 1)))
            rule = None
            try:
                if site is not None:
                    rule = faults.maybe_raise(site)
                    if rule is not None and rule.kind == "drop":
                        # A dropped response: the request may or may not have
                        # reached the server (idempotent either way); the
                        # connection is dead from the client's point of view.
                        self.close()
                        raise faults.InjectedOSError(f"injected dropped response at {site}")
                conn = self._connection()
                conn.request(method, self._prefix + path, body=body)
                response = conn.getresponse()
                payload = response.read()
            except (OSError, http.client.HTTPException, faults.InjectedError) as exc:
                self.close()
                last_error = exc
                continue
            if rule is not None and rule.kind == "torn":
                payload = payload[: len(payload) // 2]
            return response.status, payload
        raise OSError(
            f"store {method} {path} at {self.location} failed after "
            f"{self.RETRY_ATTEMPTS} attempts: {last_error}"
        )

    def _json(self, payload: bytes) -> Dict[str, object]:
        try:
            data = json.loads(payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise OSError(f"malformed response from store at {self.location}: {exc}")
        if not isinstance(data, dict):
            raise OSError(f"malformed response from store at {self.location}")
        return data

    # -- handshake -------------------------------------------------------------
    def ensure_ready(self) -> None:
        status, payload = self._request("GET", "/v1/stat")
        if status != 200:
            raise OSError(f"store endpoint {self.location} refused stat: HTTP {status}")
        meta = self._json(payload)
        if meta.get("format") != STORE_FORMAT or meta.get("schema") != self.schema:
            # Never wipe a remote store on mismatch — refuse it instead.
            raise OSError(
                f"remote store {self.location} was written by a different "
                "compiler build (schema fingerprint mismatch); refusing to attach"
            )

    # -- blobs -----------------------------------------------------------------
    def blob_get(self, digest: str) -> Optional[bytes]:
        status, payload = self._request(
            "GET", f"/v1/blob/{digest}", site="store.http.get"
        )
        if status == 404:
            return None
        if status != 200:
            raise OSError(f"blob GET {digest[:12]} failed: HTTP {status}")
        return payload

    def blob_put(self, digest: str, data: bytes) -> None:
        status, _ = self._request(
            "PUT", f"/v1/blob/{digest}", body=data, site="store.http.put"
        )
        if status not in (200, 204):
            raise OSError(f"blob PUT {digest[:12]} failed: HTTP {status}")

    def blob_delete(self, digest: str) -> None:
        status, _ = self._request(
            "DELETE", f"/v1/blob/{digest}", site="store.http.put"
        )
        if status not in (200, 204, 404):
            raise OSError(f"blob DELETE {digest[:12]} failed: HTTP {status}")

    def blob_quarantine(self, digest: str) -> None:
        status, _ = self._request(
            "DELETE", f"/v1/blob/{digest}?quarantine=1", site="store.http.put"
        )
        if status not in (200, 204, 404):
            raise OSError(f"blob quarantine {digest[:12]} failed: HTTP {status}")

    def quarantine_count(self) -> int:
        try:
            status, payload = self._request("GET", "/v1/stat", site="store.http.get")
            if status != 200:
                return 0
            return int(self._json(payload).get("quarantine", 0))  # type: ignore[arg-type]
        except (OSError, TypeError, ValueError):
            return 0

    def list_blobs(self) -> Dict[str, int]:
        status, payload = self._request("GET", "/v1/blobs", site="store.http.get")
        if status != 200:
            raise OSError(f"blob listing failed: HTTP {status}")
        listing = self._json(payload)
        blobs: Dict[str, int] = {}
        for digest, size in listing.items():
            try:
                blobs[str(digest)] = int(size)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                continue
        return blobs

    # -- index -----------------------------------------------------------------
    def index_read(self) -> Tuple[int, Optional[Dict[str, object]]]:
        status, payload = self._request("GET", "/v1/index", site="store.http.get")
        if status != 200:
            raise OSError(f"index GET failed: HTTP {status}")
        data = self._json(payload)
        rev = data.get("rev", 0)
        if not isinstance(rev, int) or rev < 0:
            rev = 0
        return rev, _sanitize_entries(data.get("entries"))

    def index_swap(self, expect_rev: int, entries: Dict[str, object]) -> bool:
        body = json.dumps(
            {"expect_rev": expect_rev, "entries": entries}, sort_keys=True
        ).encode("utf-8")
        status, _ = self._request("PUT", "/v1/index", body=body, site="store.http.put")
        if status in (200, 204):
            return True
        if status == 409:
            return False
        raise OSError(f"index swap failed: HTTP {status}")

    # -- maintenance -----------------------------------------------------------
    def maintain(self, tmp_stale_s: float, quarantine_age_s: float) -> None:
        body = json.dumps(
            {"tmp_stale_s": tmp_stale_s, "quarantine_age_s": quarantine_age_s},
            sort_keys=True,
        ).encode("utf-8")
        status, _ = self._request("POST", "/v1/maintain", body=body, site="store.http.put")
        if status not in (200, 204):
            raise OSError(f"store maintenance failed: HTTP {status}")

    def wipe(self) -> None:
        status, _ = self._request("POST", "/v1/clear", site="store.http.put")
        if status not in (200, 204):
            raise OSError(f"store clear failed: HTTP {status}")

    def stat(self) -> Dict[str, object]:
        status, payload = self._request("GET", "/v1/stat", site="store.http.get")
        if status != 200:
            raise OSError(f"store stat failed: HTTP {status}")
        return self._json(payload)
