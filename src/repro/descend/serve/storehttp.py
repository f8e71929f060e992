"""The daemon's HTTP store endpoint: the artifact store served over TCP.

``descendc serve --store-http PORT`` exposes the daemon's artifact store
to remote sweep workers as a small versioned HTTP/1.1 protocol, parsed
directly off the asyncio loop (no ``http.server`` thread pool — the loop
already owns connection shuffling, and store work belongs on the daemon's
single-writer executor anyway).  :class:`~repro.descend.store.backend.HttpBackend`
is the matching client.

Wire protocol (version ``v1``, all paths prefixed ``/v1``):

=====================  ======================================================
``GET /v1/stat``       ``{"format", "schema", "rev", "quarantine"}`` — the
                       attachment handshake; a client refuses a store whose
                       format/schema fingerprint differs from its own.
``GET /v1/blob/<d>``   The raw pickle blob (200) or 404.  Idempotent.
``PUT /v1/blob/<d>``   Store a blob under its digest (204).  Idempotent —
                       concurrent writers of one digest write the same bytes.
``DELETE /v1/blob/<d>[?quarantine=1]``
                       Evict a blob; with ``quarantine=1`` it is moved aside
                       server-side instead of deleted (corrupt-pickle path).
``GET /v1/index``      ``{"rev": N, "entries": {...}|null}`` — ``null`` marks
                       a corrupt index the client should rebuild from blobs.
``PUT /v1/index``      Body ``{"expect_rev": N, "entries": {...}}`` — the
                       rev-guarded compare-and-swap: 204 on success (the
                       server writes the table as a new index snapshot),
                       409 if the rev moved (the client re-reads and retries).
``POST /v1/maintain``  Body ``{"tmp_stale_s", "quarantine_age_s"}`` — run
                       the stray/tmp/quarantine sweeps server-side (gc).
``POST /v1/clear``     Delete every blob (layout and schema stay).
=====================  ======================================================

Every store operation — including blob GETs — runs on the daemon's
single-writer executor, so one machine stays the serialization point for
the whole fleet: a remote index swap can never interleave with a local
compile's store write.  Protocol errors answer 4xx on that connection
only; backend I/O failures answer 500 and the *client's* retry/degradation
machinery decides what that means (a cache miss, never a crashed sweep).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
from concurrent.futures import Executor
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.descend.store.backend import MAX_HTTP_BODY_BYTES, LocalDirBackend
from repro.descend.store.cas import ArtifactStore
from repro.descend.store.fingerprint import pipeline_fingerprint

__all__ = ["StoreHttpEndpoint"]

#: Bound on one request's header section (count and per-line length come
#: from the stream limit; this stops a slow-loris header stream).
MAX_HEADER_LINES = 64

_REASONS = {
    200: "OK",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class StoreHttpEndpoint:
    """Serves one :class:`LocalDirBackend` over HTTP on the daemon's loop."""

    def __init__(
        self,
        store_path: str,
        executor: Executor,
        max_body_bytes: int = MAX_HTTP_BODY_BYTES,
    ) -> None:
        self.backend = LocalDirBackend(Path(store_path), pipeline_fingerprint())
        self.backend.ensure_ready()
        self._executor = executor
        self._max_body_bytes = max_body_bytes
        self.requests = 0
        self.errors = 0

    # -- connection handling ----------------------------------------------------
    async def on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        loop = asyncio.get_running_loop()
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, target, body = request
                self.requests += 1
                try:
                    status, ctype, payload = await loop.run_in_executor(
                        self._executor, self._dispatch, method, target, body
                    )
                except Exception as exc:  # noqa: BLE001 - endpoint must never die
                    self.errors += 1
                    status, ctype, payload = _json_response(500, {"error": str(exc)})
                writer.write(_head(status, ctype, len(payload)) + payload)
                await writer.drain()
                if status >= 400 and status != 404 and status != 409:
                    # Protocol-level trouble: the connection state is suspect
                    # (unread body, bad framing); drop it rather than guess.
                    break
        except (
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            ConnectionResetError,
            ValueError,
            OSError,
        ):
            pass
        except asyncio.CancelledError:
            # Loop shutdown cancelling an idle keep-alive connection: end the
            # handler quietly (swallowing is deliberate — there is no caller
            # above this task to propagate to, only the loop's noisy logger).
            pass
        finally:
            with contextlib.suppress(OSError, RuntimeError):
                writer.close()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, bytes]]:
        """Parse one HTTP/1.1 request; ``None`` on a cleanly closed socket."""
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise ValueError(f"malformed request line: {request_line!r}")
        method, target = parts[0].upper(), parts[1]
        length = 0
        for _ in range(MAX_HEADER_LINES):
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        else:
            raise ValueError("too many request headers")
        if length < 0 or length > self._max_body_bytes:
            raise ValueError(f"request body of {length} bytes exceeds the bound")
        body = await reader.readexactly(length) if length else b""
        return method, target, body

    # -- request dispatch (runs on the single-writer executor) ------------------
    def _dispatch(self, method: str, target: str, body: bytes) -> Tuple[int, str, bytes]:
        path, _, query = target.partition("?")
        parts = [part for part in path.split("/") if part]
        if not parts or parts[0] != "v1":
            return _json_response(404, {"error": "unknown path (expected /v1/...)"})
        tail = parts[1:]
        try:
            if tail == ["stat"]:
                if method != "GET":
                    return _json_response(405, {"error": "stat is GET-only"})
                return _json_response(200, self.backend.stat())
            if tail == ["blobs"]:
                if method != "GET":
                    return _json_response(405, {"error": "blob listing is GET-only"})
                return _json_response(200, self.backend.list_blobs())
            if tail == ["index"]:
                return self._dispatch_index(method, body)
            if len(tail) == 2 and tail[0] == "blob":
                return self._dispatch_blob(method, tail[1], query, body)
            if tail == ["maintain"]:
                if method != "POST":
                    return _json_response(405, {"error": "maintain is POST-only"})
                options = _json_body(body)
                self.backend.maintain(
                    _number(options.get("tmp_stale_s"), ArtifactStore.TMP_STALE_S),
                    _number(options.get("quarantine_age_s"), ArtifactStore.TMP_STALE_S),
                )
                return _empty_response(204)
            if tail == ["clear"]:
                if method != "POST":
                    return _json_response(405, {"error": "clear is POST-only"})
                self.backend.wipe()
                return _empty_response(204)
        except ValueError as exc:
            return _json_response(400, {"error": str(exc)})
        except OSError as exc:
            self.errors += 1
            return _json_response(500, {"error": str(exc)})
        return _json_response(404, {"error": f"unknown store endpoint {path}"})

    def _dispatch_index(self, method: str, body: bytes) -> Tuple[int, str, bytes]:
        if method == "GET":
            rev, raw = self.backend.index_read()
            return _json_response(200, {"rev": rev, "entries": raw})
        if method == "PUT":
            payload = _json_body(body)
            expect_rev = payload.get("expect_rev")
            entries = payload.get("entries")
            if not isinstance(expect_rev, int) or not isinstance(entries, dict):
                return _json_response(
                    400, {"error": "index swap needs expect_rev (int) and entries (object)"}
                )
            if self.backend.index_swap(expect_rev, entries):
                return _empty_response(204)
            return _json_response(409, {"error": "index rev moved; re-read and retry"})
        return _json_response(405, {"error": "index is GET/PUT-only"})

    def _dispatch_blob(
        self, method: str, digest: str, query: str, body: bytes
    ) -> Tuple[int, str, bytes]:
        if not LocalDirBackend._is_digest(digest):
            return _json_response(400, {"error": f"not a digest: {digest[:80]!r}"})
        if method == "GET":
            blob = self.backend.blob_get(digest)
            if blob is None:
                return _json_response(404, {"error": "no such blob"})
            return 200, "application/octet-stream", blob
        if method == "PUT":
            self.backend.blob_put(digest, body)
            return _empty_response(204)
        if method == "DELETE":
            if "quarantine=1" in query.split("&"):
                self.backend.blob_quarantine(digest)
            else:
                self.backend.blob_delete(digest)
            return _empty_response(204)
        return _json_response(405, {"error": "blobs are GET/PUT/DELETE-only"})


def _head(status: int, ctype: str, length: int) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    return (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {ctype}\r\n"
        f"Content-Length: {length}\r\n"
        "Connection: keep-alive\r\n\r\n"
    ).encode("latin-1")


def _json_response(status: int, payload: Dict[str, object]) -> Tuple[int, str, bytes]:
    return status, "application/json", json.dumps(payload, sort_keys=True).encode("utf-8")


def _empty_response(status: int) -> Tuple[int, str, bytes]:
    return status, "application/json", b""


def _number(value: object, default: float) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return max(0.0, float(value))
    return default


def _json_body(body: bytes) -> Dict[str, object]:
    if not body:
        return {}
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ValueError(f"malformed JSON body: {exc}")
    return payload if isinstance(payload, dict) else {}
