"""The compile-service daemon: ``descendc serve``.

A stdlib-``asyncio`` server that keeps one hot, store-attached
:class:`~repro.descend.api.LocalBackend` (and therefore one
:class:`~repro.descend.driver.CompileSession`) alive across any number of
clients, turning every repeated compile in the fleet into a memory- or
store-tier cache hit.  Clients speak the newline-delimited JSON protocol of
API schema v1 (:mod:`repro.descend.api`) over a local ``AF_UNIX`` socket.

Execution model, deliberately boring:

* The event loop only parses frames and shuffles bytes; compile work runs
  on a **single worker thread** (the "single writer"): the shared session
  and the persistent artifact store see strictly serialized mutations, and
  each response's pass timings belong to exactly one request.
* **Coalescing**: identical in-flight compile requests (same op + source +
  options, :func:`~repro.descend.serve.protocol.coalesce_key`) share one
  execution — ten clients compiling the same program concurrently cost one
  compile, and each still gets a response under its own request id.
* **Backpressure**: at most ``max_pending`` requests may be queued for the
  worker; excess requests receive a structured ``overloaded`` error
  immediately instead of growing an unbounded queue.
* **Per-client isolation**: every protocol failure (malformed JSON, wrong
  version, oversized frame) is answered with a structured error on that
  connection only — it never kills the server, and cached failure
  diagnostics are detached copies, so no client can mutate what another
  receives.
* **Graceful drain**: SIGTERM/SIGINT (or the ``shutdown`` op) stops
  accepting work, waits up to ``drain_timeout_s`` for in-flight requests to
  finish and flush their responses, then exits.
* **Partial-failure hardening**: idle connections are reclaimed after
  ``read_timeout_s``; a request's optional ``deadline_ms`` is honored at
  executor-dequeue time (``deadline-exceeded`` instead of a wasted
  compile); ``health`` is answered on the loop so liveness never queues
  behind a wedged worker; and the socket read/write and executor
  submission seams carry :mod:`repro.faults` injection points
  (``serve.conn.read`` / ``serve.conn.write`` / ``serve.exec.submit``)
  so the chaos suite can prove all of the above under injected failure.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Dict, Optional, Set

from repro import faults
from repro.descend.api import (
    ERR_DEADLINE,
    ERR_INTERNAL,
    ERR_OVERLOADED,
    ERR_OVERSIZED,
    ERR_SHUTTING_DOWN,
    OP_HEALTH,
    OP_PING,
    OP_SHUTDOWN,
    LocalBackend,
    ProtocolError,
    Request,
    Response,
    decode_frame,
    encode_frame,
)
from repro.descend.serve.protocol import ServeConfig, coalesce_key

__all__ = ["CompileServer", "ServerThread", "ServeConfig"]


class CompileServer:
    """One daemon instance: a shared backend behind a local socket."""

    def __init__(self, backend: LocalBackend, config: ServeConfig) -> None:
        self.backend = backend
        self.config = config
        self.requests = 0
        self.coalesced = 0
        self.overloaded = 0
        self.protocol_errors = 0
        self.started_unix = time.time()
        self._pending = 0
        self._inflight: Dict[str, asyncio.Task] = {}
        self._tasks: Set[asyncio.Task] = set()
        #: Each open connection's writer and its :meth:`_on_client` task.
        self._clients: Dict[asyncio.StreamWriter, asyncio.Task] = {}
        self._stopping = asyncio.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="descend-compile"
        )
        #: Bound ``(host, port)`` of the HTTP store endpoint, once serving.
        self.store_http_address: Optional[tuple] = None
        self._store_endpoint = None

    # -- lifecycle --------------------------------------------------------------
    def request_stop(self) -> None:
        """Begin graceful shutdown (idempotent; callable from the loop only)."""
        self._stopping.set()

    def stop_threadsafe(self) -> None:
        """Begin graceful shutdown from any thread."""
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self.request_stop)

    @property
    def store_url(self) -> Optional[str]:
        """The HTTP store endpoint's URL, once serving (``None`` otherwise)."""
        if self.store_http_address is None:
            return None
        host, port = self.store_http_address
        return f"http://{host}:{port}"

    def stats(self) -> Dict[str, object]:
        stats: Dict[str, object] = {
            "requests": self.requests,
            "coalesced": self.coalesced,
            "overloaded": self.overloaded,
            "protocol_errors": self.protocol_errors,
            "pending": self._pending,
            "clients": len(self._clients),
            "uptime_s": time.time() - self.started_unix,
        }
        if self._store_endpoint is not None:
            stats["store_http"] = {
                "url": self.store_url,
                "requests": self._store_endpoint.requests,
                "errors": self._store_endpoint.errors,
            }
        return stats

    async def run(self, on_ready=None) -> None:
        """Serve until :meth:`request_stop`, then drain and exit."""
        self._loop = asyncio.get_running_loop()
        if self.config.store_path:
            self.backend.attach_store_path(self.config.store_path)
        path = self.config.socket_path
        # A socket path under a directory that does not exist yet (fresh
        # container, tmpfs wiped between runs) is a startup failure the
        # daemon can trivially heal instead of dying on bind().
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._unlink_stale_socket(path)
        server = await asyncio.start_unix_server(
            self._on_client, path=path, limit=self.config.max_frame_bytes
        )
        store_server = None
        if self.config.store_http_port is not None:
            if not self.config.store_path:
                raise ValueError("the HTTP store endpoint requires a store path")
            from repro.descend.serve.storehttp import StoreHttpEndpoint

            # Store work shares the compile executor: the daemon's single
            # writer stays the one serialization point for local compiles
            # *and* remote index swaps.
            self._store_endpoint = StoreHttpEndpoint(
                self.config.store_path, self._executor
            )
            store_server = await asyncio.start_server(
                self._store_endpoint.on_client,
                host=self.config.store_http_host,
                port=self.config.store_http_port,
            )
            bound = store_server.sockets[0].getsockname()
            self.store_http_address = (bound[0], bound[1])
        self._install_signal_handlers()
        try:
            if on_ready is not None:
                on_ready()
            await self._stopping.wait()
        finally:
            server.close()
            await server.wait_closed()
            if store_server is not None:
                store_server.close()
                await store_server.wait_closed()
            await self._drain()
            handlers = list(self._clients.values())
            for writer in list(self._clients):
                self._close_writer(writer)
            # A closed connection ends its handler's pending read with EOF;
            # let the handlers finish rather than leave them for asyncio.run
            # to cancel (which logs a traceback per idle connection).
            if handlers:
                await asyncio.wait(handlers, timeout=self.config.drain_timeout_s)
            self._executor.shutdown(wait=False)
            with contextlib.suppress(OSError):
                os.unlink(path)

    def _install_signal_handlers(self) -> None:
        assert self._loop is not None
        for signum in (signal.SIGTERM, signal.SIGINT):
            # Unavailable off the main thread (ServerThread) and on some
            # platforms; the shutdown op and stop_threadsafe still work.
            with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
                self._loop.add_signal_handler(signum, self.request_stop)

    @staticmethod
    def _unlink_stale_socket(path: str) -> None:
        # A previous daemon that died without cleanup leaves its socket file
        # behind; binding over it requires removing it first.  Only ever
        # remove an actual socket — refuse to delete a regular file.
        import stat

        try:
            mode = os.stat(path).st_mode
        except OSError:
            return
        if stat.S_ISSOCK(mode):
            with contextlib.suppress(OSError):
                os.unlink(path)

    async def _drain(self) -> None:
        """Wait (bounded) for in-flight requests to finish and flush."""
        pending = {task for task in self._tasks if not task.done()}
        if pending:
            await asyncio.wait(pending, timeout=self.config.drain_timeout_s)

    # -- connection handling ----------------------------------------------------
    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._clients[writer] = asyncio.current_task()
        try:
            while not self._stopping.is_set():
                try:
                    if self.config.read_timeout_s is not None:
                        # Idle-connection bound: a client that stops talking
                        # (or leaked its socket) is reclaimed instead of
                        # holding an fd forever.
                        line = await asyncio.wait_for(
                            reader.readline(), self.config.read_timeout_s
                        )
                    else:
                        line = await reader.readline()
                except asyncio.TimeoutError:
                    break
                except (ValueError, asyncio.LimitOverrunError):
                    # A line longer than the stream limit: the buffer is
                    # poisoned mid-frame, so answer once and drop the client.
                    self.protocol_errors += 1
                    await self._send(
                        writer,
                        Response.failure(
                            "", ERR_OVERSIZED,
                            f"frame exceeds {self.config.max_frame_bytes} bytes",
                        ),
                    )
                    break
                except (ConnectionResetError, OSError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                if faults.check("serve.conn.read") is not None:
                    # Injected connection loss mid-read: drop the client the
                    # way a real reset would, without answering.
                    break
                task = asyncio.ensure_future(self._serve_line(line, writer))
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
                # One request at a time per connection (pipelining stays
                # ordered); concurrency comes from multiple connections.
                await task
        finally:
            self._clients.pop(writer, None)
            self._close_writer(writer)

    async def _serve_line(self, line: bytes, writer: asyncio.StreamWriter) -> None:
        self.requests += 1
        request_id: Optional[str] = None
        try:
            frame = decode_frame(line, self.config.max_frame_bytes)
            raw_id = frame.get("id")
            request_id = raw_id if isinstance(raw_id, str) else None
            request = Request.from_wire(frame)
        except ProtocolError as exc:
            self.protocol_errors += 1
            await self._send(
                writer, Response.failure("", exc.code, str(exc), id=request_id)
            )
            return
        if self._stopping.is_set():
            await self._send(
                writer,
                Response.failure(
                    request.op, ERR_SHUTTING_DOWN, "server is shutting down",
                    id=request.id,
                ),
            )
            return
        if request.op == OP_PING:
            artifacts: Dict[str, object] = {"pong": True, "pid": os.getpid()}
            artifacts.update(self.stats())
            await self._send(
                writer,
                Response(op=OP_PING, status="ok", id=request.id, artifacts=artifacts),
            )
            return
        if request.op == OP_HEALTH:
            # Liveness must not queue behind compiles: answered on the loop,
            # like ping, so a wedged worker is exactly what health reveals.
            health: Dict[str, object] = self.backend.health()
            health["server"] = self.stats()
            await self._send(
                writer,
                Response(op=OP_HEALTH, status="ok", id=request.id, artifacts=health),
            )
            return
        if request.op == OP_SHUTDOWN:
            await self._send(
                writer,
                Response(
                    op=OP_SHUTDOWN, status="ok", id=request.id,
                    artifacts={"stopping": True},
                ),
            )
            self.request_stop()
            return
        response = await self._execute_coalesced(request)
        await self._send(writer, response)

    async def _execute_coalesced(self, request: Request) -> Response:
        key = coalesce_key(request)
        inflight = self._inflight.get(key) if key is not None else None
        if inflight is not None:
            # Identical request already executing: share its result, but
            # answer under this client's request id.
            self.coalesced += 1
            response = await inflight
            return replace(response, id=request.id)
        if self._pending >= self.config.max_pending:
            self.overloaded += 1
            return Response.failure(
                request.op, ERR_OVERLOADED,
                f"compile queue is full ({self.config.max_pending} pending)",
                id=request.id,
            )
        self._pending += 1
        task = asyncio.ensure_future(self._execute(request))
        if key is not None:
            self._inflight[key] = task
        try:
            return await task
        finally:
            self._pending -= 1
            if key is not None and self._inflight.get(key) is task:
                del self._inflight[key]

    async def _execute(self, request: Request) -> Response:
        assert self._loop is not None
        # An optional per-request deadline: the client says how long the
        # answer is still worth computing.  The executor checks it at
        # dequeue time — a request that waited out its budget behind the
        # single writer is answered `deadline-exceeded` instead of burning
        # the worker on a result nobody is waiting for.
        deadline_ms = request.option("deadline_ms")
        deadline: Optional[float] = None
        if isinstance(deadline_ms, (int, float)) and not isinstance(deadline_ms, bool):
            deadline = time.monotonic() + max(0.0, float(deadline_ms)) / 1000.0

        def work() -> Response:
            if deadline is not None and time.monotonic() > deadline:
                return Response.failure(
                    request.op,
                    ERR_DEADLINE,
                    f"deadline_ms={deadline_ms} expired while queued",
                    id=request.id,
                )
            return self.backend.handle(request)

        try:
            faults.maybe_raise("serve.exec.submit")
            return await self._loop.run_in_executor(self._executor, work)
        except Exception as exc:  # noqa: BLE001 - the server must never die
            return Response.failure(request.op, ERR_INTERNAL, str(exc), id=request.id)

    async def _send(self, writer: asyncio.StreamWriter, response: Response) -> None:
        """Write one response; a vanished client is that client's problem."""
        try:
            rule = faults.check("serve.conn.write")
            if rule is not None:
                # Injected connection loss mid-response: the client sees the
                # socket die without (or with only part of) the answer —
                # exactly the window its reconnect-and-retry path covers.
                if rule.kind == "torn":
                    frame = encode_frame(response.to_wire())
                    writer.write(frame[: len(frame) // 2])
                    await writer.drain()
                self._close_writer(writer)
                return
            writer.write(encode_frame(response.to_wire()))
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    @staticmethod
    def _close_writer(writer: asyncio.StreamWriter) -> None:
        with contextlib.suppress(OSError, RuntimeError):
            writer.close()


class ServerThread:
    """A daemon running on a background thread (tests, in-process load gen).

    ``descendc serve`` runs :class:`CompileServer` on the main thread via
    ``asyncio.run``; this helper gives tests and the serve benchmark the
    same daemon without a subprocess.
    """

    def __init__(self, backend: LocalBackend, config: ServeConfig) -> None:
        self.backend = backend
        self.config = config
        self.server = CompileServer(backend, config)
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="descendc-serve", daemon=True
        )

    def _run(self) -> None:
        asyncio.run(self.server.run(on_ready=self._ready.set))

    def start(self, timeout: float = 10.0) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("compile server failed to start in time")
        return self

    @property
    def store_url(self) -> Optional[str]:
        """The daemon's HTTP store endpoint URL (``None`` unless enabled)."""
        return self.server.store_url

    def stop(self, timeout: float = 10.0) -> None:
        self.server.stop_threadsafe()
        self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()
