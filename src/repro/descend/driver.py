"""The staged compiler driver: explicit, cached, timed compilation passes.

Compilation used to be a loose pile of one-shot functions — every consumer
(CLI, benchsuite, interpreter, code generator) re-ran ``parse_program`` and
``check_program`` from scratch, and every vectorized launch rebuilt its
device plan.  This module turns "compile" into an architectural layer:

* :class:`CompilerDriver` runs the pipeline as explicit passes

  .. code-block:: text

      source text ──parse──▶ AST ──typeck──▶ CheckedProgram
                                                 │
                             ┌───────────────────┼─────────────────────┐
                         lower.plan          lower.cuda           lower.print
                       (DevicePlan per    (CUDA C++ module)    (surface syntax)
                        GPU function)
                             │
                       lower.plan.opt
                     (IR pass pipeline)
                             │
                     lower.plan.codegen
                  (generated plan source)

  and reports each pass's wall-clock and diagnostics uniformly
  (:class:`PassTiming`).

* :class:`CompileSession` caches every pass artifact by *content hash*:
  source units are keyed by ``sha256(text)``, builder-API programs by the
  (frozen, hashable) AST itself.  Repeated compiles of the same program —
  benchsuite sweeps, ``--scale`` runs, test suites, repeated ``kernel()``
  launches — hit the cache instead of re-checking.  Failed compiles are
  cached too, so cached diagnostics are byte-identical to cold ones.
  Programs whose AST is unhashable have no key and compile uncached.

* Attaching a persistent :class:`~repro.descend.store.cas.ArtifactStore`
  (``session.attach_store(store)``) adds a second cache tier *under* the
  in-memory one.  Every artifact kind — program units, device plans, plan
  sources, CUDA modules, printed sources — takes the same path,
  :meth:`CompileSession.serve`: memory → store → compute, with cold results
  written back, so the cache survives across processes (CLI invocations,
  CI jobs, benchsuite shards).  Every artifact — device plans included,
  since they are data-driven IR (:mod:`repro.descend.plan`), not closures —
  round-trips byte-identically through pickles; warm processes deserialize
  plans instead of re-lowering them.

Every process has an *active* session (:func:`active_session`); consumers
that want isolation (tests, cold-cache benchmarks) create their own
``CompileSession`` and pass it to a driver, or scope one temporarily with
:func:`session_scope`.

The convenience façades ``compile_source`` / ``compile_program`` /
``compile_file`` in :mod:`repro.descend.api` delegate here.
"""

from __future__ import annotations

import copy
import hashlib
import pickle
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.descend.ast import terms as T
from repro.descend.ast.printer import print_program
from repro.descend.frontend import parse_program
from repro.descend.source import SourceFile
from repro.descend.typeck import check_program
from repro.descend.typeck.checker import CheckedProgram
from repro.errors import DescendError

#: Canonical pass names, in pipeline order (lowerings are unordered siblings).
PASS_PARSE = "parse"
PASS_TYPECK = "typeck"
PASS_LOWER_PLAN = "lower.plan"
PASS_LOWER_PLAN_OPT = "lower.plan.opt"
PASS_LOWER_PLAN_CODEGEN = "lower.plan.codegen"
PASS_LOWER_CUDA = "lower.cuda"
PASS_LOWER_PRINT = "lower.print"

PASS_ORDER = (
    PASS_PARSE,
    PASS_TYPECK,
    PASS_LOWER_PLAN,
    PASS_LOWER_PLAN_OPT,
    PASS_LOWER_PLAN_CODEGEN,
    PASS_LOWER_CUDA,
    PASS_LOWER_PRINT,
)


@dataclass(frozen=True)
class PassTiming:
    """Wall-clock record of one pass over one compilation unit.

    ``source`` records which cache tier satisfied the pass: ``"compute"``
    (cold), ``"memory"`` (the in-process session cache) or ``"store"`` (the
    persistent artifact store).  An empty string means "derive it from
    ``cached``" so that hand-built timings stay valid.
    """

    unit: str
    name: str
    wall_s: float
    cached: bool
    detail: str = ""
    source: str = ""

    @property
    def tier(self) -> str:
        """The effective cache tier this pass was served from."""
        if self.source:
            return self.source
        return "memory" if self.cached else "compute"

    def as_dict(self) -> Dict[str, object]:
        return {
            "unit": self.unit,
            "pass": self.name,
            "wall_s": self.wall_s,
            "cached": self.cached,
            "detail": self.detail,
            "source": self.tier,
        }


class Artifact(NamedTuple):
    """One kind of cached artifact, as :meth:`CompileSession.serve` sees it.

    ``kind`` names its memory map and store namespace, ``label`` its
    ``cache stats`` bucket (cached failures report as ``failure``),
    ``pass_name`` the pass a cache hit records, and ``valid`` the shape
    check a store load must pass: anything else is corrupt or stale and
    degrades to a cold compute.
    """

    kind: str
    label: str
    pass_name: str
    valid: Callable[[object], bool]


def _is_unit(value: object) -> bool:
    return isinstance(value, (CompiledProgram, DescendError))


def _is_outcome(value: object, artifact_type: type) -> bool:
    """``(artifact, None)`` or ``(None, fallback reason)``."""
    return (
        isinstance(value, tuple)
        and len(value) == 2
        and (
            (isinstance(value[0], artifact_type) and value[1] is None)
            or (value[0] is None and isinstance(value[1], str))
        )
    )


def _is_plan(value: object) -> bool:
    from repro.descend.plan import DevicePlan

    return _is_outcome(value, DevicePlan)


def _is_plan_source(value: object) -> bool:
    from repro.descend.plan import PlanSource

    return _is_outcome(value, PlanSource)


#: A unit is a :class:`CompiledProgram` or the :class:`DescendError` that
#: rejected it; a source unit's hit records ``parse``, a builder's ``typeck``.
_SOURCE_UNIT = Artifact("unit", "program", PASS_PARSE, _is_unit)
_PROGRAM_UNIT = Artifact("unit", "program", PASS_TYPECK, _is_unit)
_PLAN = Artifact("plan", "plan", PASS_LOWER_PLAN, _is_plan)
_PLAN_SOURCE = Artifact("plan-src", "plan-src", PASS_LOWER_PLAN_CODEGEN, _is_plan_source)
_CUDA = Artifact("cuda", "cuda", PASS_LOWER_CUDA, lambda value: hasattr(value, "full_source"))
_PRINT = Artifact("print", "print", PASS_LOWER_PRINT, lambda value: isinstance(value, str))
_ARTIFACT_KINDS = ("unit", "plan", "plan-src", "cuda", "print")


#: Sentinel for "not in this memory map" (an entry may be any object).
_MISSING = object()


def _detach_failure(exc: DescendError) -> DescendError:
    """An independent copy of a compile failure.

    Cached failures are stored and re-raised as copies so that no two
    consumers share one mutable exception: mutating a received diagnostic
    (``with_note`` etc.) must not leak into future cached diagnostics, and
    re-raising must not accumulate traceback frames on a shared instance.
    """
    clone = copy.copy(exc)
    clone.diagnostic = copy.deepcopy(getattr(exc, "diagnostic", None))
    clone.__traceback__ = None
    return clone


class _ProgramKey:
    """Content key of a builder-API program: the frozen AST, hashed once.

    Hashing a frozen AST walks all of it, and a memory-tier hit hashes its
    key twice (pop and reinsert), so the hash is taken once, when the key
    is made.  Two keys compare their ASTs only after their hashes match.
    The hash lives here, not on the AST: :meth:`CompileSession.key_digest`
    pickles the AST, and a salted hash on it would change store digests.
    """

    __slots__ = ("program", "_hash")

    def __init__(self, program: T.Program) -> None:
        self.program = program
        self._hash = hash(program)  # TypeError for an unhashable AST

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, _ProgramKey)
            and self._hash == other._hash
            and self.program == other.program
        )


class CompileSession:
    """A content-addressed cache of compilation passes.

    One session is shared by every consumer that wants to reuse compiles:
    the CLI shares a session across its sub-commands, the benchsuite across
    a sweep, the interpreter across launches.  Keys are content hashes, so
    an *edited* program (different text, different AST) misses the cache and
    recompiles, while a byte-identical one hits.

    Sessions are **thread-safe**: every cache map, the hit/miss and
    per-pass counters, and the persistent-store reads and write-backs are
    guarded by one reentrant lock, so concurrent consumers (the
    compile-service daemon's worker thread next to event-loop stats reads,
    tests hammering one session from a pool) cannot corrupt shared state.
    Compute passes run outside the lock, so those of a colliding key may run
    twice — last write wins, both results are identical by construction —
    but counters never tear and the artifact store sees serialized writes
    from this process.
    """

    #: Caps for the content-addressed stores and the timing log.  Sessions
    #: are long-lived (the CLI and the façades share process-wide ones), so
    #: every store evicts least-recently-used past its cap instead of
    #: growing without bound; an evicted program simply recompiles (or
    #: reloads from the persistent store) on the next ask.
    MAX_UNITS = 1024
    MAX_TIMINGS = 8192

    def __init__(self, label: str = "session", store: Optional[object] = None) -> None:
        self.label = label
        #: One reentrant lock for all shared mutable state (cache maps,
        #: counters, timings) and the single-writer store write-back.
        self._lock = threading.RLock()
        #: Optional persistent tier (an
        #: :class:`~repro.descend.store.cas.ArtifactStore`): misses in the
        #: in-memory maps fall through to it, cold results write back.
        self.store = store
        #: One LRU map per artifact kind, keyed ``(unit key, extra)``.
        self._memory: Dict[str, Dict[Tuple[object, str], object]] = {
            kind: {} for kind in _ARTIFACT_KINDS
        }
        self._digests: Dict[object, object] = {}
        self.timings: List[PassTiming] = []
        #: Monotonic per-(pass, tier) counters: unlike :attr:`timings`,
        #: which is trimmed past :data:`MAX_TIMINGS`, these never lose
        #: history — sweep pass summaries difference them.
        self.pass_counts: Dict[str, Dict[str, int]] = {}
        self.hits = 0
        self.misses = 0

    def _remember(self, cache: Dict, key: object, value: object) -> None:
        """Insert with LRU eviction (dicts preserve insertion order, and
        every cache hit reinserts its key at the end)."""
        with self._lock:
            if key not in cache and len(cache) >= self.MAX_UNITS:
                cache.pop(next(iter(cache)))
            cache[key] = value

    # -- persistent tier -------------------------------------------------------
    def attach_store(self, store: object) -> "CompileSession":
        """Attach a persistent artifact store as the second cache tier."""
        self.store = store
        return self

    def key_digest(self, key: object) -> Optional[str]:
        """Stable (cross-process) hex digest of a cache key.

        Source keys already carry a content hash; builder-program keys are
        digested through a deterministic pickle of the frozen AST.  Returns
        ``None`` for keys that cannot be digested (those artifacts stay
        in-memory-only).
        """
        with self._lock:
            memo = self._digests.get(key)
        if memo is not None:
            return memo if isinstance(memo, str) else None
        if isinstance(key, tuple) and len(key) == 3 and key[0] == "source":
            _, name, content_hash = key
            digest: Optional[str] = hashlib.sha256(
                f"source\0{name}\0{content_hash}".encode("utf-8")
            ).hexdigest()
        elif isinstance(key, _ProgramKey):
            try:
                blob = pickle.dumps(key.program, protocol=4)
            except Exception:
                blob = None
            digest = (
                hashlib.sha256(b"program\0" + blob).hexdigest() if blob is not None else None
            )
        else:
            digest = None
        self._remember(self._digests, key, digest if digest is not None else False)
        return digest

    def artifact_digest(self, kind: str, key: object, extra: str = "") -> Optional[str]:
        """The store object name of one ``(kind, unit key, extra)`` artifact."""
        base = self.key_digest(key)
        if base is None:
            return None
        return hashlib.sha256(f"{kind}\0{extra}\0{base}".encode("utf-8")).hexdigest()

    # -- keys ------------------------------------------------------------------
    @staticmethod
    def source_key(text: str, name: str = "<descend>") -> object:
        """Content hash of a source unit (the file name participates because
        it appears in rendered diagnostics)."""
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return ("source", name, digest)

    @staticmethod
    def program_key(program: T.Program) -> Optional[object]:
        """Content key of a builder-API program: the frozen AST itself.

        Structurally equal programs (e.g. two calls of the same builder with
        the same parameters) compare and hash equal, which makes the AST its
        own content address.  Returns ``None`` for unhashable ASTs, which
        are simply compiled uncached.
        """
        try:
            return _ProgramKey(program)
        except TypeError:
            return None

    # -- the one cache path ------------------------------------------------------
    def serve(
        self,
        artifact: Artifact,
        key: Optional[object],
        unit: str,
        compute: Callable[..., object],
        *args: object,
        extra: str = "",
        detail: str = "",
    ) -> object:
        """One artifact from the memory tier, else the store, else ``compute``.

        A hit records ``artifact.pass_name`` with the tier that served it
        (``detail`` names the function or, for a cached failure,
        ``"failure"``).  On a miss ``compute(*args)`` runs outside the lock
        and records its own passes, so each keeps its own wall time; its
        entry is kept in memory and written back to the store.  Programs
        without a content key (``key is None``) compute uncached.
        """
        if key is None:
            return compute(*args)
        start = time.perf_counter()
        memory = self._memory[artifact.kind]
        entry_key = (key, extra)
        digest = None
        with self._lock:
            entry = memory.pop(entry_key, _MISSING)
            if entry is not _MISSING:
                memory[entry_key] = entry  # now the most recently used
                tier = "memory"
            elif self.store is not None:
                digest = self.artifact_digest(artifact.kind, key, extra)
                # The store handles cross-process races itself (flock); the
                # lock serializes this process's threads over the store's
                # in-memory bookkeeping (pending LRU stamps, counters).
                loaded = self.store.load(digest) if digest is not None else None
                if loaded is not None and artifact.valid(loaded):
                    entry, tier = loaded, "store"
                    self._remember(memory, entry_key, entry)
            if entry is not _MISSING:
                if isinstance(entry, DescendError):
                    detail = "failure"
                wall = time.perf_counter() - start
                self.record(PassTiming(unit, artifact.pass_name, wall, True, detail, tier))
                return entry
        entry = compute(*args)
        self._remember(memory, entry_key, entry)
        if digest is not None:
            label = "failure" if isinstance(entry, DescendError) else artifact.label
            # Single writer per process: concurrent threads take turns, so the
            # store's index read-modify-write and its touch batching only ever
            # see one in-process mutator (the flock covers other processes).
            with self._lock:
                self.store.store(digest, entry, kind=label)
        return entry

    # -- bookkeeping -----------------------------------------------------------
    def record(self, timing: PassTiming) -> PassTiming:
        with self._lock:
            if len(self.timings) >= self.MAX_TIMINGS:
                del self.timings[: self.MAX_TIMINGS // 2]
            self.timings.append(timing)
            tiers = self.pass_counts.setdefault(timing.name, {})
            tiers[timing.tier] = tiers.get(timing.tier, 0) + 1
            if timing.cached:
                self.hits += 1
            else:
                self.misses += 1
        return timing

    def record_compute(self, unit: str, pass_name: str, start: float, detail: str = "") -> None:
        """Record one compute pass that started at ``start`` (``perf_counter``)."""
        self.record(PassTiming(unit, pass_name, time.perf_counter() - start, False, detail))

    @property
    def plan_compiles(self) -> int:
        """Plan lowerings run (``lower.plan`` compute passes)."""
        return self.pass_counts.get(PASS_LOWER_PLAN, {}).get("compute", 0)

    @property
    def plan_source_compiles(self) -> int:
        """Plan sources generated (``lower.plan.codegen`` compute passes)."""
        return self.pass_counts.get(PASS_LOWER_PLAN_CODEGEN, {}).get("compute", 0)

    def pass_counts_snapshot(self) -> Dict[str, Dict[str, int]]:
        """Copy of the monotonic ``{pass: {tier: count}}`` counters.

        Difference against :meth:`pass_counts_since`; unlike slicing
        :attr:`timings` (trimmed past :data:`MAX_TIMINGS`, which would
        silently under-count), the counters never lose history.
        """
        with self._lock:
            return {name: dict(tiers) for name, tiers in self.pass_counts.items()}

    def pass_counts_since(
        self, snapshot: Dict[str, Dict[str, int]]
    ) -> Dict[str, Dict[str, int]]:
        """Passes recorded since ``snapshot``, as ``{pass: {tier: count}}``.

        The benchsuite's compile observability: a warm-store sweep must
        show ``lower.plan`` served from the ``store`` tier with zero
        ``compute`` entries — the cross-process plan-reuse guarantee.
        """
        current = self.pass_counts_snapshot()
        delta: Dict[str, Dict[str, int]] = {}
        for name, tiers in current.items():
            before = snapshot.get(name, {})
            changed = {
                tier: count - before.get(tier, 0)
                for tier, count in tiers.items()
                if count - before.get(tier, 0) > 0
            }
            if changed:
                delta[name] = changed
        return delta

    def stats(self) -> Dict[str, object]:
        with self._lock:
            units = self._memory["unit"].values()
            failures = sum(isinstance(entry, DescendError) for entry in units)
            stats: Dict[str, object] = {
                "label": self.label,
                "programs": len(units) - failures,
                "failures": failures,
                "plans": len(self._memory["plan"]),
                "plan_compiles": self.plan_compiles,
                "plan_sources": len(self._memory["plan-src"]),
                "plan_source_compiles": self.plan_source_compiles,
                "cuda_modules": len(self._memory["cuda"]),
                "hits": self.hits,
                "misses": self.misses,
            }
            if self.store is not None:
                stats["store"] = self.store.stats()
        return stats

    def clear(self) -> None:
        with self._lock:
            for cache in self._memory.values():
                cache.clear()
            self._digests.clear()
            self.timings.clear()
            self.pass_counts.clear()
            self.hits = 0
            self.misses = 0

    def timings_table(self) -> str:
        """Human-readable pass breakdown (the CLI's ``--timings`` output)."""
        if not self.timings:
            return "no passes recorded"
        width = max(len(name) for name in PASS_ORDER)
        unit_width = max(len("unit"), *(len(timing.unit) for timing in self.timings))
        header = f"{'unit':<{unit_width}} {'pass':<{width}} {'wall':>10}  cached"
        lines = [header, "-" * len(header)]
        lines.extend(
            f"{timing.unit:<{unit_width}} {timing.name:<{width}} {timing.wall_s * 1e3:>8.2f}ms"
            f"  {'store' if timing.tier == 'store' else ('yes' if timing.cached else 'no')}"
            for timing in self.timings
        )
        totals: Dict[str, float] = {}
        for timing in self.timings:
            totals[timing.name] = totals.get(timing.name, 0.0) + timing.wall_s
        summary = ", ".join(
            f"{name} {totals[name] * 1e3:.2f}ms" for name in PASS_ORDER if name in totals
        )
        counters = f"cache hits {self.hits}, misses {self.misses}"
        if self.store is not None:
            counters += (
                f"; store hits {self.store.hits}, misses {self.store.misses},"
                f" writes {self.store.writes}"
            )
        lines.append("-" * len(header))
        lines.append(f"total per pass: {summary}  ({counters})")
        return "\n".join(lines)

    # -- cached lowerings --------------------------------------------------------
    def device_plan(
        self,
        program: T.Program,
        fun_name: str,
        key: Optional[object] = None,
        unit: str = "<program>",
    ):
        """The cached ``(plan, fallback_reason)`` of one GPU function.

        Exactly one of the two is not ``None``.  A function the plan
        compiler refuses (:class:`~repro.descend.plan.PlanUnsupported`)
        caches its reason, so repeated launches of an un-lowerable kernel do
        not retry the lowering.  Plans are data-driven IR
        (:class:`~repro.descend.plan.ir.DevicePlan`) and persist as ``plan``
        artifacts: a warm store serves the finished plan directly — no
        ``lower.plan`` compute pass — and fallback reasons persist alongside.
        """
        if key is None:
            key = self.program_key(program)
        return self.serve(
            _PLAN, key, unit, self._lower_plan, program, fun_name, unit, extra=fun_name, detail=fun_name
        )

    def _lower_plan(self, program: T.Program, fun_name: str, unit: str):
        from repro.descend.plan import PlanUnsupported, lower_device_plan, optimize_plan

        fun_def = program.fun(fun_name)
        start = time.perf_counter()
        try:
            plan = lower_device_plan(fun_def)
        except PlanUnsupported as exc:
            self.record_compute(unit, PASS_LOWER_PLAN, start, fun_name)
            return None, str(exc)
        self.record_compute(unit, PASS_LOWER_PLAN, start, fun_name)
        start = time.perf_counter()
        plan, opt_detail = optimize_plan(plan)
        self.record_compute(unit, PASS_LOWER_PLAN_OPT, start, f"{fun_name} {opt_detail}")
        return plan, None

    def plan_source(
        self,
        program: T.Program,
        fun_name: str,
        key: Optional[object] = None,
        unit: str = "<program>",
    ):
        """The cached ``(plan_source, fallback_reason)`` of one GPU function.

        Exactly one of the two is not ``None``.  The ``lower.plan.codegen``
        pass compiles the optimized plan IR (resolved through
        :meth:`device_plan`, so a cached plan is reused) into a
        :class:`~repro.descend.plan.codegen.PlanSource`; codegen is total,
        so the source is missing exactly when the lowering refused the
        function.  Both outcomes persist as ``plan-src`` artifacts, so a warm
        store serves vectorized and jit launches with zero codegen compute
        passes.
        """
        if key is None:
            key = self.program_key(program)
        return self.serve(
            _PLAN_SOURCE,
            key,
            unit,
            self._generate_plan_source,
            program,
            fun_name,
            key,
            unit,
            extra=fun_name,
            detail=fun_name,
        )

    def _generate_plan_source(
        self, program: T.Program, fun_name: str, key: Optional[object], unit: str
    ):
        from repro.descend.plan import generate_plan_source

        plan, reason = self.device_plan(program, fun_name, key, unit)
        start = time.perf_counter()
        entry = (None, reason) if plan is None else (generate_plan_source(plan), None)
        self.record_compute(unit, PASS_LOWER_PLAN_CODEGEN, start, fun_name)
        return entry

    def cuda_module(
        self,
        program: T.Program,
        nat_env: Optional[Dict[str, int]] = None,
        key: Optional[object] = None,
        unit: str = "<program>",
    ):
        """The cached CUDA C++ translation of a program (one per nat env)."""
        if key is None:
            key = self.program_key(program)
        env_key = tuple(sorted(nat_env.items())) if nat_env else None
        return self.serve(
            _CUDA, key, unit, self._generate_cuda, program, nat_env, unit, extra=repr(env_key)
        )

    def _generate_cuda(self, program: T.Program, nat_env: Optional[Dict[str, int]], unit: str):
        from repro.descend.codegen import generate_cuda

        start = time.perf_counter()
        module = generate_cuda(program, nat_env)
        self.record_compute(unit, PASS_LOWER_CUDA, start)
        return module

    def printed_source(
        self, program: T.Program, key: Optional[object] = None, unit: str = "<program>"
    ) -> str:
        """The cached pretty-printed surface syntax of a program."""
        if key is None:
            key = self.program_key(program)
        return self.serve(_PRINT, key, unit, self._print, program, unit)

    def _print(self, program: T.Program, unit: str) -> str:
        start = time.perf_counter()
        text = print_program(program)
        self.record_compute(unit, PASS_LOWER_PRINT, start)
        return text


@dataclass
class CompiledProgram:
    """A parsed and type-checked Descend program with its back-ends attached.

    Produced by :class:`CompilerDriver` (or the façades in
    :mod:`repro.descend.api`).  All lowerings route through the
    session's content-addressed caches, so e.g. two ``kernel()`` handles of
    the same program share one device plan.
    """

    program: T.Program
    checked: CheckedProgram
    source: Optional[SourceFile] = None
    unit: str = "<program>"
    key: Optional[object] = None
    session: Optional[CompileSession] = None

    def __getstate__(self) -> Dict[str, object]:
        # Persisted without its session (locks, caches) and key: the session
        # that loads it from the store binds both.
        return {**self.__dict__, "key": None, "session": None}

    def cache_key(self) -> Optional[object]:
        if self.key is not None:
            return self.key
        self.key = CompileSession.program_key(self.program)
        return self.key

    def _session(self) -> CompileSession:
        return self.session if self.session is not None else active_session()

    # -- code generation ------------------------------------------------------------
    def to_cuda(self, nat_env: Optional[Dict[str, int]] = None):
        """Translate the program to CUDA C++ source (cached per nat env)."""
        return self._session().cuda_module(self.program, nat_env, self.cache_key(), self.unit)

    def to_source(self) -> str:
        """Pretty-print the program back to Descend surface syntax (cached)."""
        return self._session().printed_source(self.program, self.cache_key(), self.unit)

    # -- execution ---------------------------------------------------------------------
    def kernel(self, name: str):
        """A launchable handle for one GPU function (device plans cached)."""
        from repro.descend.interp.device import DescendKernel

        return DescendKernel(self.program, name, session=self._session(), compiled=self)

    def device_plan(self, name: str):
        """The device plan for one GPU function (or its fallback reason)."""
        return self._session().device_plan(self.program, name, self.cache_key(), self.unit)

    def plan_source(self, name: str):
        """The generated plan source for one GPU function (or its fallback reason)."""
        return self._session().plan_source(self.program, name, self.cache_key(), self.unit)

    def run_host(
        self,
        fun_name: str,
        args: Optional[Dict[str, object]] = None,
        device=None,
        nat_args: Optional[Dict[str, int]] = None,
    ):
        """Run a CPU (host) function, including the kernels it launches."""
        from repro.descend.interp.host import HostInterpreter

        interpreter = HostInterpreter(self.program, device, compiled=self)
        return interpreter.run(fun_name, args, nat_args)

    # -- introspection ------------------------------------------------------------------
    @property
    def function_names(self):
        return tuple(f.name for f in self.program.fun_defs)

    def gpu_function_names(self):
        return tuple(f.name for f in self.program.gpu_functions())


class CompilerDriver:
    """Runs the staged pipeline against one :class:`CompileSession`."""

    def __init__(self, session: Optional[CompileSession] = None) -> None:
        self._session = session

    @property
    def session(self) -> CompileSession:
        return self._session if self._session is not None else active_session()

    # -- entry points -----------------------------------------------------------
    def compile_source(self, text: str, name: str = "<descend>") -> CompiledProgram:
        """Parse and type check Descend source text (cached by content hash)."""
        session = self.session
        key = session.source_key(text, name)
        entry = session.serve(_SOURCE_UNIT, key, name, self._parse, session, text, name, key)
        return self._program_of(session, key, entry)

    def compile_program(self, program: T.Program) -> CompiledProgram:
        """Type check a program built with the builder API (cached by AST)."""
        session = self.session
        key = session.program_key(program)
        unit = self._unit_label(program)
        entry = session.serve(_PROGRAM_UNIT, key, unit, self._typecheck, session, program, None, key, unit)
        return self._program_of(session, key, entry)

    def compile_file(self, path: str) -> CompiledProgram:
        """Parse and type check a ``.descend`` file."""
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        return self.compile_source(text, name=path)

    # -- passes ------------------------------------------------------------------
    @staticmethod
    def _program_of(session: CompileSession, key: Optional[object], entry: object) -> CompiledProgram:
        """The served unit's program; a compile failure is raised as a copy."""
        if isinstance(entry, DescendError):
            raise _detach_failure(entry)
        if entry.session is None:  # loaded from the store
            entry.session, entry.key = session, key
        return entry

    @staticmethod
    def _parse(session: CompileSession, text: str, name: str, key: Optional[object]) -> object:
        start = time.perf_counter()
        try:
            program = parse_program(text, name)
        except DescendError as exc:
            session.record_compute(name, PASS_PARSE, start)
            return _detach_failure(exc)
        session.record_compute(name, PASS_PARSE, start)
        return CompilerDriver._typecheck(session, program, SourceFile(text, name), key, name)

    @staticmethod
    def _typecheck(
        session: CompileSession,
        program: T.Program,
        source: Optional[SourceFile],
        key: Optional[object],
        unit: str,
    ) -> object:
        start = time.perf_counter()
        try:
            checked = check_program(program, source)
        except DescendError as exc:
            session.record_compute(unit, PASS_TYPECK, start)
            return _detach_failure(exc)
        session.record_compute(unit, PASS_TYPECK, start)
        return CompiledProgram(program, checked, source, unit, key, session)

    @staticmethod
    def _unit_label(program: T.Program) -> str:
        names = [f.name for f in program.fun_defs]
        return names[0] if names else "<empty>"


# ---------------------------------------------------------------------------
# The process-wide active session
# ---------------------------------------------------------------------------

_ACTIVE_SESSION = CompileSession(label="default")


def active_session() -> CompileSession:
    """The session shared by consumers that do not bring their own."""
    return _ACTIVE_SESSION


def set_active_session(session: CompileSession) -> CompileSession:
    """Replace the process-wide session; returns the previous one."""
    global _ACTIVE_SESSION
    previous = _ACTIVE_SESSION
    _ACTIVE_SESSION = session
    return previous


@contextmanager
def session_scope(session: Optional[CompileSession] = None):
    """Temporarily install ``session`` (or a fresh one) as the active session."""
    scoped = session if session is not None else CompileSession(label="scoped")
    previous = set_active_session(scoped)
    try:
        yield scoped
    finally:
        set_active_session(previous)
