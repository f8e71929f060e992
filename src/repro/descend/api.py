"""``repro.descend.api`` — the one public surface of the Descend compiler.

Every consumer — the ``descendc`` CLI, the compile-service daemon
(:mod:`repro.descend.serve`), the benchsuite, tests, future remote sweep
workers — speaks this module instead of reaching into scattered entry
points.  It has three layers, innermost first:

* **Functions.**  :func:`compile_source` / :func:`compile_program` /
  :func:`compile_file` are the programmatic entry points.  They return
  rich in-process objects (:class:`~repro.descend.driver.CompiledProgram`).

* **Requests.**  :class:`Request` / :class:`Response` are the *versioned*
  (``v = 1``) operation schema: ``check`` / ``compile`` / ``print`` /
  ``plan`` / ``cache.stats`` / ``ping`` / ``health`` / ``shutdown``, each
  carrying
  source-or-path plus options in, and status, JSON-safe artifacts,
  rendered diagnostics and pass timings/tiers out.  The schema is what
  travels over the daemon's newline-delimited JSON protocol, and
  :func:`encode_frame` / :func:`decode_frame` are its wire codec.

* **Backends.**  :class:`LocalBackend` executes requests in-process
  against one (thread-safe, store-attachable)
  :class:`~repro.descend.driver.CompileSession`;
  :class:`DescendClient` executes them against a running
  ``descendc serve`` daemon over its local socket.  Both expose the same
  ``handle(request) -> response`` shape, so a consumer written against
  the request schema works unchanged in-process and remote — and the
  daemon *is* a ``LocalBackend`` behind a socket, which is why its
  diagnostics and artifacts are byte-identical to in-process compiles.
"""

from __future__ import annotations

import json
import os
import random
import socket
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Tuple

from repro.descend.driver import (
    CompiledProgram,
    CompilerDriver,
    CompileSession,
)
from repro.descend.source import SourceFile
from repro.errors import DescendError, DescendSyntaxError, DescendTypeError

__all__ = [
    "API_VERSION",
    "OPS",
    "ProtocolError",
    "Request",
    "Response",
    "RetryPolicy",
    "LocalBackend",
    "DescendClient",
    "encode_frame",
    "decode_frame",
    "render_failure",
    "compile_source",
    "compile_program",
    "compile_file",
]

#: Version of the request/response schema.  Bump on incompatible changes;
#: a daemon rejects frames whose ``"v"`` it does not speak with a
#: structured ``unsupported-version`` error instead of guessing.
API_VERSION = 1

#: The operations of schema v1.
OP_CHECK = "check"
OP_COMPILE = "compile"
OP_PRINT = "print"
OP_PLAN = "plan"
OP_CACHE_STATS = "cache.stats"
OP_PING = "ping"
OP_HEALTH = "health"
OP_SHUTDOWN = "shutdown"

OPS = (
    OP_CHECK, OP_COMPILE, OP_PRINT, OP_PLAN, OP_CACHE_STATS, OP_PING, OP_HEALTH,
    OP_SHUTDOWN,
)

#: Operations that compile something and therefore need ``source`` or ``path``.
COMPILE_OPS = (OP_CHECK, OP_COMPILE, OP_PRINT, OP_PLAN)

#: Operations a client may safely re-send after a dropped connection or a
#: transient failure: everything except ``shutdown`` is a pure read (or a
#: content-addressed compile, which is referentially transparent).  A
#: retried ``shutdown`` could kill a *different* daemon that reclaimed the
#: socket between attempts, so it never retries.
IDEMPOTENT_OPS = tuple(op for op in OPS if op != OP_SHUTDOWN)

#: Hard cap on one wire frame (request or response), matched by the server's
#: stream limit.  Large enough for any Figure 8 artifact, small enough that a
#: hostile client cannot balloon the daemon's memory with one line.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Machine-readable error codes of schema v1 (the ``error.code`` field).
ERR_MALFORMED = "malformed-frame"
ERR_OVERSIZED = "oversized-frame"
ERR_UNSUPPORTED_VERSION = "unsupported-version"
ERR_UNKNOWN_OP = "unknown-op"
ERR_BAD_REQUEST = "bad-request"
ERR_SYNTAX = "syntax-error"
ERR_TYPE = "type-error"
ERR_COMPILE = "compile-error"
ERR_IO = "io-error"
ERR_OVERLOADED = "overloaded"
ERR_SHUTTING_DOWN = "shutting-down"
ERR_INTERNAL = "internal-error"
ERR_RETRIES_EXHAUSTED = "retries-exhausted"
ERR_DEADLINE = "deadline-exceeded"

#: Structured error codes a client may retry: the condition clears on its
#: own (a momentarily full compile queue), unlike e.g. a type error, which
#: is deterministic, or ``shutting-down``, which only resolves by the
#: daemon exiting.  Connection-level failures (``OSError``, torn frames)
#: are retried separately by :class:`DescendClient`.
RETRYABLE_CODES = (ERR_OVERLOADED,)


class ProtocolError(Exception):
    """A request that cannot be executed as asked: carries a wire error code.

    Raised by the wire codec (malformed / wrong-version frames) and by
    request validation (missing source, unknown op, unknown GPU function);
    backends and the daemon translate it into a structured error
    :class:`Response` instead of letting it escape.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class Request:
    """One operation of API schema v1.

    Exactly one of ``source`` (inline program text) or ``path`` (a file the
    executing backend reads) must be set for the compile-ish ops
    (:data:`COMPILE_OPS`); ``ping`` / ``health`` / ``cache.stats`` /
    ``shutdown`` take neither.  ``options`` is the per-op option bag — schema v1 defines
    ``{"no_opt": bool, "jit": bool}`` for ``plan`` (``jit`` renders the
    generated Python of the ``lower.plan.codegen`` pass instead of the IR
    disassembly); unknown keys are ignored for forward compatibility.
    """

    op: str
    source: Optional[str] = None
    path: Optional[str] = None
    name: Optional[str] = None
    fun: Optional[str] = None
    options: Mapping[str, object] = field(default_factory=dict)
    id: Optional[str] = None

    def option(self, key: str, default: object = None) -> object:
        return self.options.get(key, default)

    def to_wire(self) -> Dict[str, object]:
        frame: Dict[str, object] = {"v": API_VERSION, "op": self.op}
        if self.id is not None:
            frame["id"] = self.id
        for key in ("source", "path", "name", "fun"):
            value = getattr(self, key)
            if value is not None:
                frame[key] = value
        if self.options:
            frame["options"] = dict(self.options)
        return frame

    @classmethod
    def from_wire(cls, frame: object) -> "Request":
        """Validate one decoded request frame (raises :class:`ProtocolError`)."""
        if not isinstance(frame, dict):
            raise ProtocolError(ERR_MALFORMED, "request frame must be a JSON object")
        version = frame.get("v")
        if version != API_VERSION:
            raise ProtocolError(
                ERR_UNSUPPORTED_VERSION,
                f"unsupported API version {version!r}; this server speaks v{API_VERSION}",
            )
        op = frame.get("op")
        if not isinstance(op, str) or op not in OPS:
            raise ProtocolError(ERR_UNKNOWN_OP, f"unknown op {op!r}; expected one of {OPS}")
        fields: Dict[str, object] = {"op": op}
        for key in ("source", "path", "name", "fun", "id"):
            value = frame.get(key)
            if value is not None and not isinstance(value, str):
                raise ProtocolError(ERR_BAD_REQUEST, f"request field {key!r} must be a string")
            fields[key] = value
        options = frame.get("options", {})
        if not isinstance(options, dict):
            raise ProtocolError(ERR_BAD_REQUEST, "request field 'options' must be an object")
        fields["options"] = options
        request = cls(**fields)
        if request.op in COMPILE_OPS:
            if (request.source is None) == (request.path is None):
                raise ProtocolError(
                    ERR_BAD_REQUEST,
                    f"op {op!r} requires exactly one of 'source' or 'path'",
                )
        return request


@dataclass(frozen=True)
class Response:
    """The result of one :class:`Request`.

    ``status`` is ``"ok"`` or ``"error"``.  ``artifacts`` holds the
    JSON-safe op outputs (``cuda`` text, ``ir`` dumps, function lists,
    stats); ``diagnostics`` the rendered compiler diagnostics (byte-identical
    to what an in-process compile renders); ``passes`` the
    :class:`~repro.descend.driver.PassTiming` rows this request recorded and
    ``pass_tiers`` their ``{pass: {tier: count}}`` aggregation — a warm
    daemon answering from the store shows no ``compute`` tier at all.
    """

    op: str
    status: str
    id: Optional[str] = None
    artifacts: Dict[str, object] = field(default_factory=dict)
    diagnostics: Tuple[str, ...] = ()
    passes: Tuple[Dict[str, object], ...] = ()
    pass_tiers: Dict[str, Dict[str, int]] = field(default_factory=dict)
    error: Optional[Dict[str, str]] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def error_code(self) -> str:
        return (self.error or {}).get("code", "")

    @property
    def error_message(self) -> str:
        return (self.error or {}).get("message", "")

    def to_wire(self) -> Dict[str, object]:
        return {
            "v": API_VERSION,
            "id": self.id,
            "op": self.op,
            "status": self.status,
            "artifacts": self.artifacts,
            "diagnostics": list(self.diagnostics),
            "passes": list(self.passes),
            "pass_tiers": self.pass_tiers,
            "error": self.error,
        }

    @classmethod
    def from_wire(cls, frame: object) -> "Response":
        if not isinstance(frame, dict):
            raise ProtocolError(ERR_MALFORMED, "response frame must be a JSON object")
        version = frame.get("v")
        if version != API_VERSION:
            raise ProtocolError(
                ERR_UNSUPPORTED_VERSION, f"unsupported response version {version!r}"
            )
        status = frame.get("status")
        if status not in ("ok", "error"):
            raise ProtocolError(ERR_MALFORMED, f"invalid response status {status!r}")
        error = frame.get("error")
        if error is not None and not isinstance(error, dict):
            raise ProtocolError(ERR_MALFORMED, "response field 'error' must be an object")
        return cls(
            op=str(frame.get("op", "")),
            status=status,
            id=frame.get("id") if isinstance(frame.get("id"), str) else None,
            artifacts=frame.get("artifacts") if isinstance(frame.get("artifacts"), dict) else {},
            diagnostics=tuple(
                d for d in frame.get("diagnostics", ()) if isinstance(d, str)
            ),
            passes=tuple(p for p in frame.get("passes", ()) if isinstance(p, dict)),
            pass_tiers=frame.get("pass_tiers")
            if isinstance(frame.get("pass_tiers"), dict)
            else {},
            error=error,
        )

    @classmethod
    def failure(
        cls,
        op: str,
        code: str,
        message: str,
        id: Optional[str] = None,
        diagnostics: Tuple[str, ...] = (),
        passes: Tuple[Dict[str, object], ...] = (),
        pass_tiers: Optional[Dict[str, Dict[str, int]]] = None,
    ) -> "Response":
        return cls(
            op=op,
            status="error",
            id=id,
            diagnostics=diagnostics,
            passes=passes,
            pass_tiers=pass_tiers or {},
            error={"code": code, "message": message},
        )


# ---------------------------------------------------------------------------
# Wire codec: newline-delimited JSON frames
# ---------------------------------------------------------------------------


def encode_frame(frame: Mapping[str, object]) -> bytes:
    """One wire frame: compact, key-sorted JSON plus the newline delimiter."""
    return json.dumps(frame, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_frame(line: bytes, max_bytes: int = MAX_FRAME_BYTES) -> Dict[str, object]:
    """Decode one received line (raises :class:`ProtocolError`, never crashes)."""
    if len(line) > max_bytes:
        raise ProtocolError(ERR_OVERSIZED, f"frame exceeds {max_bytes} bytes")
    try:
        frame = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(ERR_MALFORMED, f"frame is not valid JSON: {exc}") from None
    if not isinstance(frame, dict):
        raise ProtocolError(ERR_MALFORMED, "frame must be a JSON object")
    return frame


def render_failure(exc: DescendError, source: Optional[SourceFile]) -> Optional[str]:
    """The rendered (rustc-style) form of a compile failure, if it has one.

    This is the *single* rendering path shared by the CLI, the in-process
    backend and the daemon, which is what makes their diagnostics
    byte-identical.
    """
    diagnostic = getattr(exc, "diagnostic", None)
    if diagnostic is None:
        return None
    return diagnostic.render(source)


def _error_code(exc: DescendError) -> str:
    if isinstance(exc, DescendSyntaxError):
        return ERR_SYNTAX
    if isinstance(exc, DescendTypeError):
        return ERR_TYPE
    return ERR_COMPILE


# ---------------------------------------------------------------------------
# In-process backend
# ---------------------------------------------------------------------------


class LocalBackend:
    """Executes API requests in-process against one :class:`CompileSession`.

    The backend serializes request execution with an internal lock: the
    session's caches stay consistent, the persistent store sees one writer
    per process, and each response's pass timings are attributable to
    exactly one request.  The compile-service daemon wraps one instance in
    a single-worker executor; the CLI holds one across its sub-commands.
    """

    def __init__(
        self, session: Optional[CompileSession] = None, label: str = "api"
    ) -> None:
        self.session = session if session is not None else CompileSession(label=label)
        self.driver = CompilerDriver(self.session)
        self._lock = threading.RLock()
        self.requests = 0
        self.started_unix = time.time()

    # -- store wiring -----------------------------------------------------------
    def attach_store(self, store: Optional[object]) -> "LocalBackend":
        """Attach (or with ``None`` detach) the persistent artifact store."""
        self.session.store = store
        return self

    def attach_store_path(self, path: Optional[str]) -> "LocalBackend":
        if not path:
            return self.attach_store(None)
        from repro.descend.store import ArtifactStore

        return self.attach_store(ArtifactStore(path))

    # -- the request entry point ------------------------------------------------
    def handle(self, request: Request) -> Response:
        """Execute one request; never raises for request-shaped failures."""
        with self._lock:
            self.requests += 1
            session = self.session
            snapshot = session.pass_counts_snapshot()
            mark = len(session.timings)
            unit, text = None, None
            try:
                unit, text = self._load_input(request)
                artifacts = self._dispatch(request, unit, text)
            except ProtocolError as exc:
                return Response.failure(
                    request.op,
                    exc.code,
                    str(exc),
                    id=request.id,
                    passes=self._passes_since(mark),
                    pass_tiers=session.pass_counts_since(snapshot),
                )
            except DescendError as exc:
                source = SourceFile(text, unit) if text is not None else None
                rendered = render_failure(exc, source)
                return Response.failure(
                    request.op,
                    _error_code(exc),
                    str(exc),
                    id=request.id,
                    diagnostics=(rendered,) if rendered is not None else (),
                    passes=self._passes_since(mark),
                    pass_tiers=session.pass_counts_since(snapshot),
                )
            except OSError as exc:
                return Response.failure(request.op, ERR_IO, str(exc), id=request.id)
            return Response(
                op=request.op,
                status="ok",
                id=request.id,
                artifacts=artifacts,
                passes=self._passes_since(mark),
                pass_tiers=session.pass_counts_since(snapshot),
            )

    def health(self) -> Dict[str, object]:
        """The backend's liveness/degradation summary (the ``health`` op).

        Always answers — a store whose index lock is wedged degrades to a
        ``store_error`` field instead of failing the health probe, because
        the probe's job is precisely to surface that state.
        """
        info: Dict[str, object] = {
            "healthy": True,
            "pid": os.getpid(),
            "requests": self.requests,
            "uptime_s": time.time() - self.started_unix,
            "session": self.session.label,
        }
        store = getattr(self.session, "store", None)
        if store is not None:
            try:
                info["store"] = store.stats()
            except OSError as exc:
                info["healthy"] = False
                info["store_error"] = str(exc)
        from repro import faults

        fault_report = faults.report()
        if fault_report is not None:
            info["faults"] = fault_report
        return info

    def _passes_since(self, mark: int) -> Tuple[Dict[str, object], ...]:
        # The timings list is trimmed in bulk past MAX_TIMINGS; if that
        # happened mid-request the detailed rows are best-effort (the
        # monotonic pass_tiers counters never lose history).
        timings = self.session.timings
        return tuple(t.as_dict() for t in timings[min(mark, len(timings)):])

    def _load_input(self, request: Request) -> Tuple[Optional[str], Optional[str]]:
        if request.op not in COMPILE_OPS:
            return None, None
        if request.path is not None:
            with open(request.path, "r", encoding="utf-8") as handle:
                return request.path, handle.read()
        if request.source is None:
            raise ProtocolError(
                ERR_BAD_REQUEST, f"op {request.op!r} requires 'source' or 'path'"
            )
        return request.name or "<descend>", request.source

    def _dispatch(
        self, request: Request, unit: Optional[str], text: Optional[str]
    ) -> Dict[str, object]:
        op = request.op
        if op == OP_PING:
            return {
                "pong": True,
                "pid": os.getpid(),
                "requests": self.requests,
                "uptime_s": time.time() - self.started_unix,
                "session": self.session.label,
            }
        if op == OP_CACHE_STATS:
            return {"session": self.session.stats()}
        if op == OP_HEALTH:
            return self.health()
        if op == OP_SHUTDOWN:
            # The daemon intercepts this op to drain and stop; in-process it
            # is a plain acknowledgement.
            return {"stopping": True}
        compiled = self.driver.compile_source(text, name=unit)
        if op == OP_CHECK:
            return {"functions": list(compiled.function_names)}
        if op == OP_COMPILE:
            return {"cuda": compiled.to_cuda().full_source()}
        if op == OP_PRINT:
            return {"source": compiled.to_source()}
        if op == OP_PLAN:
            no_opt = bool(request.option("no_opt", False))
            jit = bool(request.option("jit", False))
            return {"ir": plan_text(compiled, unit, request.fun, no_opt, jit)}
        raise ProtocolError(ERR_UNKNOWN_OP, f"unknown op {op!r}")  # pragma: no cover


def plan_text(
    compiled: CompiledProgram, unit: str, fun: Optional[str], no_opt: bool, jit: bool
) -> str:
    """The ``plan`` op's text (also the CLI's ``plan`` output).

    The IR disassembly of each GPU function or, with ``jit``, its
    generated Python source (the ``lower.plan.codegen`` output, the CLI's
    ``plan --jit``).  ``no_opt`` re-lowers raw, bypassing the caches and
    the ``lower.plan.opt`` pipeline.  Functions the plan compiler cannot
    lower render their fallback reason as a comment.
    """
    from repro.descend.plan import (
        PlanUnsupported,
        disassemble,
        generate_plan_source,
        lower_device_plan,
    )

    gpu_names = compiled.gpu_function_names()
    if fun:
        if fun not in gpu_names:
            raise ProtocolError(
                ERR_BAD_REQUEST,
                f"`{fun}` is not a GPU function of {unit} "
                f"(GPU functions: {', '.join(gpu_names) or 'none'})",
            )
        gpu_names = (fun,)
    chunks = []
    for name in gpu_names:
        if no_opt:
            try:
                artifact, reason = lower_device_plan(compiled.program.fun(name)), None
            except PlanUnsupported as exc:
                artifact, reason = None, str(exc)
            if jit and artifact is not None:
                artifact = generate_plan_source(artifact)
        else:
            artifact, reason = (compiled.plan_source if jit else compiled.device_plan)(name)
        if artifact is None:
            chunks.append(
                f"# {name}: no jit source ({reason})\n"
                if jit
                else f"// {name}: falls back to the reference engine: {reason}\n"
            )
        else:
            chunks.append(artifact.source if jit else disassemble(artifact))
    return "\n".join(chunks)


# ---------------------------------------------------------------------------
# Socket client
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """How a :class:`DescendClient` behaves under partial failure.

    ``max_attempts`` bounds the total tries per op (1 = no retries);
    delays grow exponentially from ``base_delay_s`` capped at
    ``max_delay_s``, each scaled by *deterministic* jitter drawn from a
    PRNG seeded with ``seed`` — two clients with the same policy replay
    the same backoff schedule, which is what makes chaos runs exactly
    reproducible.  ``deadline_s`` is the per-op wall-clock budget across
    all attempts; when the next backoff would overrun it the client stops
    early with a structured ``deadline-exceeded`` error.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    deadline_s: Optional[float] = None
    seed: int = 0

    def delay_for(self, attempt: int, rng: random.Random) -> float:
        """The backoff before attempt ``attempt + 1`` (first attempt is 1)."""
        bounded = min(self.max_delay_s, self.base_delay_s * (2 ** (attempt - 1)))
        return bounded * (0.5 + 0.5 * rng.random())


#: Retry nothing: the policy of probes that implement their own loop.
NO_RETRY = RetryPolicy(max_attempts=1)


class DescendClient:
    """A blocking client of a running ``descendc serve`` daemon.

    Speaks the newline-delimited JSON protocol over the daemon's local
    (``AF_UNIX``) socket and exposes the same ``handle(request)`` shape as
    :class:`LocalBackend`, plus one convenience method per op.  One client
    holds one connection; it is not itself thread-safe — give each client
    thread its own instance (connections are cheap, the daemon multiplexes).

    Failure behavior: idempotent ops (:data:`IDEMPOTENT_OPS`) reconnect
    and retry per ``retry`` (a :class:`RetryPolicy`) on connection-level
    failures and on the retryable structured codes
    (:data:`RETRYABLE_CODES`); when attempts run out the client returns a
    structured ``retries-exhausted`` (or ``deadline-exceeded``)
    :class:`Response` naming the last underlying failure, so callers deal
    in exactly one error channel.  Non-idempotent ops (``shutdown``) fail
    fast by raising, exactly like the pre-retry client.
    """

    def __init__(
        self,
        socket_path: str,
        timeout: float = 60.0,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.socket_path = str(socket_path)
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self._sock: Optional[socket.socket] = None
        self._rfile = None
        self._next_id = 0
        self._retry_rng = random.Random(f"descend-client:{self.retry.seed}")

    # -- connection lifecycle ---------------------------------------------------
    def connect(self) -> "DescendClient":
        if self._sock is None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            try:
                sock.connect(self.socket_path)
            except OSError:
                sock.close()
                raise
            self._sock = sock
            self._rfile = sock.makefile("rb")
        return self

    def wait_until_ready(self, timeout: float = 10.0, interval: float = 0.05) -> bool:
        """Poll until the daemon answers ``ping`` (startup handshake)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                self.connect()
                if self._attempt(Request(op=OP_PING, id="ready")).ok:
                    return True
            except (OSError, ProtocolError):
                self.close()
            if time.monotonic() >= deadline:
                return False
            time.sleep(interval)

    def close(self) -> None:
        if self._rfile is not None:
            try:
                self._rfile.close()
            except OSError:
                pass
            self._rfile = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "DescendClient":
        return self.connect()

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- the request entry point ------------------------------------------------
    def handle(self, request: Request) -> Response:
        """Send one request; block for its response, retrying per policy."""
        if request.id is None:
            self._next_id += 1
            request = replace(request, id=f"c{self._next_id}")
        policy = self.retry
        deadline = (
            time.monotonic() + policy.deadline_s
            if policy.deadline_s is not None
            else None
        )
        retryable_op = request.op in IDEMPOTENT_OPS
        attempts = 0
        last_failure = ""
        while True:
            attempts += 1
            try:
                response = self._attempt(request)
            except (OSError, ProtocolError) as exc:
                # The connection is suspect (refused, reset, torn frame):
                # drop it so the next attempt reconnects from scratch.
                self.close()
                if not retryable_op:
                    raise
                last_failure = f"{type(exc).__name__}: {exc}"
            else:
                if response.ok or response.error_code not in RETRYABLE_CODES:
                    return response
                last_failure = f"{response.error_code}: {response.error_message}"
            if attempts >= max(1, policy.max_attempts):
                return Response.failure(
                    request.op,
                    ERR_RETRIES_EXHAUSTED,
                    f"gave up on {request.op!r} after {attempts} attempt(s); "
                    f"last failure: {last_failure}",
                    id=request.id,
                )
            delay = policy.delay_for(attempts, self._retry_rng)
            if deadline is not None and time.monotonic() + delay > deadline:
                return Response.failure(
                    request.op,
                    ERR_DEADLINE,
                    f"op deadline of {policy.deadline_s}s exhausted after "
                    f"{attempts} attempt(s); last failure: {last_failure}",
                    id=request.id,
                )
            time.sleep(delay)

    request = handle  # the traditional client-side name

    def _attempt(self, request: Request) -> Response:
        """One send/receive round trip, no retries (raises on I/O failure)."""
        self.connect()
        assert self._sock is not None
        self._sock.sendall(encode_frame(request.to_wire()))
        line = self._rfile.readline(MAX_FRAME_BYTES + 2)
        if not line:
            raise ProtocolError(ERR_IO, "server closed the connection")
        return Response.from_wire(decode_frame(line))

    # -- convenience ops --------------------------------------------------------
    def ping(self) -> Response:
        return self.handle(Request(op=OP_PING))

    def health(self) -> Response:
        return self.handle(Request(op=OP_HEALTH))

    def check(self, source: Optional[str] = None, path: Optional[str] = None,
              name: Optional[str] = None) -> Response:
        return self.handle(Request(op=OP_CHECK, source=source, path=path, name=name))

    def compile(self, source: Optional[str] = None, path: Optional[str] = None,
                name: Optional[str] = None) -> Response:
        return self.handle(Request(op=OP_COMPILE, source=source, path=path, name=name))

    def print_source(self, source: Optional[str] = None, path: Optional[str] = None,
                     name: Optional[str] = None) -> Response:
        return self.handle(Request(op=OP_PRINT, source=source, path=path, name=name))

    def plan(self, source: Optional[str] = None, path: Optional[str] = None,
             name: Optional[str] = None, fun: Optional[str] = None,
             no_opt: bool = False, jit: bool = False) -> Response:
        options: Dict[str, object] = {}
        if no_opt:
            options["no_opt"] = True
        if jit:
            options["jit"] = True
        return self.handle(
            Request(op=OP_PLAN, source=source, path=path, name=name, fun=fun, options=options)
        )

    def cache_stats(self) -> Response:
        return self.handle(Request(op=OP_CACHE_STATS))

    def shutdown(self) -> Response:
        return self.handle(Request(op=OP_SHUTDOWN))


# ---------------------------------------------------------------------------
# Canonical programmatic entry points
# ---------------------------------------------------------------------------

_DRIVER = CompilerDriver()  # bound to the process's active session at call time


def compile_source(text: str, name: str = "<descend>") -> CompiledProgram:
    """Parse and type check Descend source text (cached by content hash)."""
    return _DRIVER.compile_source(text, name)


def compile_program(program) -> CompiledProgram:
    """Type check a program built with the builder API (cached by AST)."""
    return _DRIVER.compile_program(program)


def compile_file(path: str) -> CompiledProgram:
    """Parse and type check a ``.descend`` file."""
    return _DRIVER.compile_file(path)
