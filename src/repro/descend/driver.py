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

  and reports each pass's wall-clock and diagnostics uniformly
  (:class:`PassTiming`).

* :class:`CompileSession` caches every pass artifact by *content hash*:
  source units are keyed by ``sha256(text)``, builder-API programs by the
  (frozen, hashable) AST itself.  Repeated compiles of the same program —
  benchsuite sweeps, ``--scale`` runs, test suites, repeated ``kernel()``
  launches — hit the cache instead of re-checking.  Failed compiles are
  cached too, so cached diagnostics are byte-identical to cold ones.

* Attaching a persistent :class:`~repro.descend.store.cas.ArtifactStore`
  (``session.attach_store(store)``) adds a second cache tier *under* the
  in-memory one: lookups go memory → store → compute, and cold results are
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
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

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


#: Sentinel distinguishing "evicted" from a stored ``None`` in :meth:`_touch`.
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


class CompileSession:
    """A content-addressed cache of compilation passes.

    One session is shared by every consumer that wants to reuse compiles:
    the CLI shares a session across its sub-commands, the benchsuite across
    a sweep, the interpreter across launches.  Keys are content hashes, so
    an *edited* program (different text, different AST) misses the cache and
    recompiles, while a byte-identical one hits.

    Sessions are **thread-safe**: every cache map, the hit/miss and
    per-pass counters, and the persistent-store write-back path are guarded
    by one reentrant lock, so concurrent consumers (the compile-service
    daemon's worker thread next to event-loop stats reads, tests hammering
    one session from a pool) cannot corrupt shared state.  Compute passes
    of a colliding key may still run twice — last write wins, both results
    are identical by construction — but counters never tear and the
    artifact store sees serialized writes from this process.
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
        self._programs: Dict[object, "CompiledProgram"] = {}
        self._failures: Dict[object, DescendError] = {}
        self._plans: Dict[Tuple[object, str], Tuple[Optional[object], Optional[str]]] = {}
        #: Fallback plan cache for programs without a content key (unhashable
        #: ASTs): keyed by id(fun_def), the FunDef retained to pin the id.
        self._plans_by_id: Dict[int, Tuple[object, Tuple[Optional[object], Optional[str]]]] = {}
        #: Generated plan sources (the ``lower.plan.codegen`` pass), same
        #: two-map shape as the plans above.
        self._plan_sources: Dict[
            Tuple[object, str], Tuple[Optional[object], Optional[str]]
        ] = {}
        self._plan_sources_by_id: Dict[
            int, Tuple[object, Tuple[Optional[object], Optional[str]]]
        ] = {}
        self._cuda: Dict[Tuple[object, Optional[Tuple[Tuple[str, int], ...]]], object] = {}
        self._printed: Dict[object, str] = {}
        self._digests: Dict[object, object] = {}
        self.timings: List[PassTiming] = []
        #: Monotonic per-(pass, tier) counters: unlike :attr:`timings`,
        #: which is trimmed past :data:`MAX_TIMINGS`, these never lose
        #: history — sweep pass summaries difference them.
        self.pass_counts: Dict[str, Dict[str, int]] = {}
        self.hits = 0
        self.misses = 0
        self.plan_compiles = 0
        self.plan_source_compiles = 0

    def _store(self, cache: Dict, key: object, value: object) -> None:
        """Insert with LRU eviction (dicts preserve insertion order, and
        every cache hit reinserts its key at the end via :meth:`_touch`)."""
        with self._lock:
            if key not in cache and len(cache) >= self.MAX_UNITS:
                cache.pop(next(iter(cache)))
            cache[key] = value

    def _touch(self, cache: Dict, key: object) -> None:
        """Move a hit key to the most-recently-used end of its cache.

        Tolerates the key having been evicted by a concurrent thread
        between the caller's membership check and this reinsertion.
        """
        with self._lock:
            value = cache.pop(key, _MISSING)
            if value is not _MISSING:
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
        elif isinstance(key, tuple) and len(key) == 2 and key[0] == "program":
            try:
                blob = pickle.dumps(key[1], protocol=4)
            except Exception:
                blob = None
            digest = (
                hashlib.sha256(b"program\0" + blob).hexdigest() if blob is not None else None
            )
        else:
            digest = None
        self._store(self._digests, key, digest if digest is not None else False)
        return digest

    def artifact_digest(self, kind: str, key: object, extra: str = "") -> Optional[str]:
        """The store object name of one ``(kind, unit key, extra)`` artifact."""
        base = self.key_digest(key)
        if base is None:
            return None
        return hashlib.sha256(f"{kind}\0{extra}\0{base}".encode("utf-8")).hexdigest()

    def store_load(self, kind: str, key: object, extra: str = "") -> Optional[object]:
        """Load one artifact from the persistent tier (``None`` on miss)."""
        if self.store is None:
            return None
        digest = self.artifact_digest(kind, key, extra)
        if digest is None:
            return None
        # The store handles cross-process races itself (flock); the session
        # lock serializes this process's threads over the store's own
        # in-memory bookkeeping (pending LRU stamps, counters).
        with self._lock:
            return self.store.load(digest)

    def store_put(
        self, kind: str, key: object, value: object, extra: str = "", label: Optional[str] = None
    ) -> bool:
        """Write one artifact back to the persistent tier (best-effort).

        ``label`` refines the *reported* artifact kind (``cache stats``
        breakdowns) without changing the digest namespace — e.g. the
        ``unit`` envelope splits into ``program`` vs ``failure`` blobs.
        """
        if self.store is None:
            return False
        digest = self.artifact_digest(kind, key, extra)
        if digest is None:
            return False
        # Single writer per process: concurrent threads take turns, so the
        # store's index read-modify-write and its touch batching only ever
        # see one in-process mutator (the flock covers other processes).
        with self._lock:
            return self.store.store(digest, value, kind=label or kind)

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
            hash(program)
        except TypeError:
            return None
        return ("program", program)

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
            return self._stats_locked()

    def _stats_locked(self) -> Dict[str, object]:
        stats: Dict[str, object] = {
            "label": self.label,
            "programs": len(self._programs),
            "failures": len(self._failures),
            "plans": len(self._plans),
            "plan_compiles": self.plan_compiles,
            "plan_sources": len(self._plan_sources),
            "plan_source_compiles": self.plan_source_compiles,
            "cuda_modules": len(self._cuda),
            "hits": self.hits,
            "misses": self.misses,
        }
        if self.store is not None:
            stats["store"] = self.store.stats()
        return stats

    def clear(self) -> None:
        with self._lock:
            self._clear_locked()

    def _clear_locked(self) -> None:
        self._programs.clear()
        self._failures.clear()
        self._plans.clear()
        self._plans_by_id.clear()
        self._plan_sources.clear()
        self._plan_sources_by_id.clear()
        self._cuda.clear()
        self._printed.clear()
        self._digests.clear()
        self.timings.clear()
        self.pass_counts.clear()
        self.hits = 0
        self.misses = 0
        self.plan_compiles = 0
        self.plan_source_compiles = 0

    def timings_table(self) -> str:
        """Human-readable pass breakdown (the CLI's ``--timings`` output)."""
        if not self.timings:
            return "no passes recorded"
        header = f"{'unit':<28} {'pass':<12} {'wall':>10}  cached"
        lines = [header, "-" * len(header)]
        lines.extend(
            f"{timing.unit:<28} {timing.name:<12} {timing.wall_s * 1e3:>8.2f}ms"
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
        """The (cached) device plan of one GPU function (thread-safe)."""
        with self._lock:
            return self._device_plan_locked(program, fun_name, key, unit)

    def _device_plan_locked(
        self,
        program: T.Program,
        fun_name: str,
        key: Optional[object] = None,
        unit: str = "<program>",
    ):
        """The (cached) device plan of one GPU function.

        Returns ``(plan, fallback_reason)``: exactly one of the two is not
        ``None``.  Failures (:class:`~repro.descend.plan.PlanUnsupported`)
        are cached as well, so repeated launches of an un-lowerable kernel do
        not retry the lowering every time.

        Plans are data-driven IR (:class:`~repro.descend.plan.ir.DevicePlan`)
        and persist as first-class ``plan`` artifacts: a warm store serves
        the finished plan directly — no re-lowering, no ``lower.plan``
        compute pass — and fallback reasons persist alongside.
        """
        from repro.descend.plan import (
            DevicePlan,
            PlanUnsupported,
            lower_device_plan,
            optimize_plan,
        )

        start = time.perf_counter()
        if key is None:
            key = self.program_key(program)
        entry_key = (key, fun_name)
        if key is not None and entry_key in self._plans:
            self._touch(self._plans, entry_key)
            self.record(
                PassTiming(
                    unit, PASS_LOWER_PLAN, time.perf_counter() - start, True, fun_name, "memory"
                )
            )
            return self._plans[entry_key]
        # The linear fun-def scan only happens past the hot cache-hit path.
        fun_def = program.fun(fun_name)
        if key is None:
            cached = self._plans_by_id.get(id(fun_def))
            if cached is not None and cached[0] is fun_def:
                self._touch(self._plans_by_id, id(fun_def))
                self.record(
                    PassTiming(
                        unit, PASS_LOWER_PLAN, time.perf_counter() - start, True, fun_name, "memory"
                    )
                )
                return cached[1]
        persisted = self.store_load("plan", key, extra=fun_name) if key is not None else None
        if isinstance(persisted, tuple) and len(persisted) == 2:
            status, payload = persisted
            entry: Optional[Tuple[Optional[object], Optional[str]]] = None
            if status == "fallback" and isinstance(payload, str):
                entry = (None, payload)
            elif status == "ok" and isinstance(payload, DevicePlan):
                entry = (payload, None)
            # Any other shape is a corrupt/stale artifact: degrade to a cold
            # lowering instead of crashing the consumer later.
            if entry is not None:
                self.record(
                    PassTiming(
                        unit, PASS_LOWER_PLAN, time.perf_counter() - start, True, fun_name, "store"
                    )
                )
                self._store(self._plans, entry_key, entry)
                return entry
        lower_start = time.perf_counter()
        self.plan_compiles += 1
        try:
            plan = lower_device_plan(fun_def)
        except PlanUnsupported as exc:
            entry = (None, str(exc))
            self.record(
                PassTiming(
                    unit, PASS_LOWER_PLAN, time.perf_counter() - lower_start, False, fun_name
                )
            )
        else:
            self.record(
                PassTiming(
                    unit, PASS_LOWER_PLAN, time.perf_counter() - lower_start, False, fun_name
                )
            )
            opt_start = time.perf_counter()
            plan, opt_detail = optimize_plan(plan)
            self.record(
                PassTiming(
                    unit,
                    PASS_LOWER_PLAN_OPT,
                    time.perf_counter() - opt_start,
                    False,
                    f"{fun_name} {opt_detail}",
                )
            )
            entry = (plan, None)
        if key is not None:
            self._store(self._plans, entry_key, entry)
            record = ("ok", entry[0]) if entry[1] is None else ("fallback", entry[1])
            self.store_put("plan", key, record, extra=fun_name)
        else:
            self._store(self._plans_by_id, id(fun_def), (fun_def, entry))
        return entry

    def plan_source(
        self,
        program: T.Program,
        fun_name: str,
        key: Optional[object] = None,
        unit: str = "<program>",
    ):
        """The (cached) JIT plan source of one GPU function (thread-safe)."""
        with self._lock:
            return self._plan_source_locked(program, fun_name, key, unit)

    def _plan_source_locked(
        self,
        program: T.Program,
        fun_name: str,
        key: Optional[object] = None,
        unit: str = "<program>",
    ):
        """The (cached) JIT plan source of one GPU function.

        Returns ``(plan_source, fallback_reason)``: exactly one of the two
        is not ``None``.  The ``lower.plan.codegen`` pass compiles the
        optimized plan IR (resolved through :meth:`_device_plan_locked`, so
        a cached plan is reused) into a :class:`~repro.descend.plan.codegen.
        PlanSource`; codegen is total, so the source is missing exactly when
        the lowering refused the function.  Both outcomes persist as
        first-class ``plan-src`` artifacts, so a warm store serves
        vectorized and jit launches with zero codegen compute passes.
        """
        from repro.descend.plan import PlanSource, generate_plan_source

        start = time.perf_counter()
        if key is None:
            key = self.program_key(program)
        entry_key = (key, fun_name)
        if key is not None and entry_key in self._plan_sources:
            self._touch(self._plan_sources, entry_key)
            self.record(
                PassTiming(
                    unit,
                    PASS_LOWER_PLAN_CODEGEN,
                    time.perf_counter() - start,
                    True,
                    fun_name,
                    "memory",
                )
            )
            return self._plan_sources[entry_key]
        fun_def = program.fun(fun_name)
        if key is None:
            cached = self._plan_sources_by_id.get(id(fun_def))
            if cached is not None and cached[0] is fun_def:
                self._touch(self._plan_sources_by_id, id(fun_def))
                self.record(
                    PassTiming(
                        unit,
                        PASS_LOWER_PLAN_CODEGEN,
                        time.perf_counter() - start,
                        True,
                        fun_name,
                        "memory",
                    )
                )
                return cached[1]
        persisted = self.store_load("plan-src", key, extra=fun_name) if key is not None else None
        if isinstance(persisted, tuple) and len(persisted) == 2:
            status, payload = persisted
            entry: Optional[Tuple[Optional[object], Optional[str]]] = None
            if status == "fallback" and isinstance(payload, str):
                entry = (None, payload)
            elif status == "ok" and isinstance(payload, PlanSource):
                entry = (payload, None)
            # Corrupt/stale artifacts degrade to a cold codegen, not a crash.
            if entry is not None:
                self.record(
                    PassTiming(
                        unit,
                        PASS_LOWER_PLAN_CODEGEN,
                        time.perf_counter() - start,
                        True,
                        fun_name,
                        "store",
                    )
                )
                self._store(self._plan_sources, entry_key, entry)
                return entry
        # Codegen input: the optimized plan, through its own cache tiers.
        plan, plan_reason = self._device_plan_locked(program, fun_name, key, unit)
        codegen_start = time.perf_counter()
        self.plan_source_compiles += 1
        if plan is None:
            entry = (None, plan_reason)
        else:
            entry = (generate_plan_source(plan), None)
        self.record(
            PassTiming(
                unit,
                PASS_LOWER_PLAN_CODEGEN,
                time.perf_counter() - codegen_start,
                False,
                fun_name,
            )
        )
        if key is not None:
            self._store(self._plan_sources, entry_key, entry)
            record = ("ok", entry[0]) if entry[1] is None else ("fallback", entry[1])
            self.store_put("plan-src", key, record, extra=fun_name)
        else:
            self._store(self._plan_sources_by_id, id(fun_def), (fun_def, entry))
        return entry

    def cuda_module(
        self,
        program: T.Program,
        nat_env: Optional[Dict[str, int]] = None,
        key: Optional[object] = None,
        unit: str = "<program>",
    ):
        """The (cached) CUDA C++ translation of a program (thread-safe)."""
        with self._lock:
            return self._cuda_module_locked(program, nat_env, key, unit)

    def _cuda_module_locked(
        self,
        program: T.Program,
        nat_env: Optional[Dict[str, int]] = None,
        key: Optional[object] = None,
        unit: str = "<program>",
    ):
        from repro.descend.codegen import generate_cuda

        start = time.perf_counter()
        if key is None:
            key = self.program_key(program)
        env_key = tuple(sorted(nat_env.items())) if nat_env else None
        entry_key = (key, env_key)
        if key is not None and entry_key in self._cuda:
            self._touch(self._cuda, entry_key)
            self.record(
                PassTiming(unit, PASS_LOWER_CUDA, time.perf_counter() - start, True, "", "memory")
            )
            return self._cuda[entry_key]
        if key is not None:
            persisted = self.store_load("cuda", key, extra=repr(env_key))
            # Duck-typed shape check: a wrong-typed (corrupt) artifact must
            # degrade to a cold lowering, not crash the consumer later.
            if persisted is not None and hasattr(persisted, "full_source"):
                self.record(
                    PassTiming(
                        unit, PASS_LOWER_CUDA, time.perf_counter() - start, True, "", "store"
                    )
                )
                self._store(self._cuda, entry_key, persisted)
                return persisted
        module = generate_cuda(program, nat_env)
        self.record(PassTiming(unit, PASS_LOWER_CUDA, time.perf_counter() - start, False))
        if key is not None:
            self._store(self._cuda, entry_key, module)
            self.store_put("cuda", key, module, extra=repr(env_key))
        return module

    def printed_source(
        self, program: T.Program, key: Optional[object] = None, unit: str = "<program>"
    ) -> str:
        """The (cached) pretty-printed surface syntax of a program (thread-safe)."""
        with self._lock:
            return self._printed_source_locked(program, key, unit)

    def _printed_source_locked(
        self, program: T.Program, key: Optional[object] = None, unit: str = "<program>"
    ) -> str:
        start = time.perf_counter()
        if key is None:
            key = self.program_key(program)
        if key is not None and key in self._printed:
            self._touch(self._printed, key)
            self.record(
                PassTiming(unit, PASS_LOWER_PRINT, time.perf_counter() - start, True, "", "memory")
            )
            return self._printed[key]
        if key is not None:
            persisted = self.store_load("print", key)
            if isinstance(persisted, str):
                self.record(
                    PassTiming(
                        unit, PASS_LOWER_PRINT, time.perf_counter() - start, True, "", "store"
                    )
                )
                self._store(self._printed, key, persisted)
                return persisted
        text = print_program(program)
        self.record(PassTiming(unit, PASS_LOWER_PRINT, time.perf_counter() - start, False))
        if key is not None:
            self._store(self._printed, key, text)
            self.store_put("print", key, text)
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
        start = time.perf_counter()
        key = session.source_key(text, name)
        cached = self._lookup(session, key, name, PASS_PARSE, start)
        if cached is not None:
            return cached

        source = SourceFile(text, name)
        start = time.perf_counter()
        try:
            program = parse_program(text, name)
        except DescendError as exc:
            session.record(PassTiming(name, PASS_PARSE, time.perf_counter() - start, False))
            detached = _detach_failure(exc)
            session._store(session._failures, key, detached)
            session.store_put("unit", key, ("fail", detached), label="failure")
            raise
        session.record(PassTiming(name, PASS_PARSE, time.perf_counter() - start, False))
        return self._typecheck(session, program, source, key, name)

    def compile_program(self, program: T.Program) -> CompiledProgram:
        """Type check a program built with the builder API (cached by AST)."""
        session = self.session
        start = time.perf_counter()
        key = session.program_key(program)
        unit = self._unit_label(program)
        if key is not None:
            cached = self._lookup(session, key, unit, PASS_TYPECK, start)
            if cached is not None:
                return cached
        return self._typecheck(session, program, None, key, unit)

    def compile_file(self, path: str) -> CompiledProgram:
        """Parse and type check a ``.descend`` file."""
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        return self.compile_source(text, name=path)

    # -- passes ------------------------------------------------------------------
    def _lookup(
        self,
        session: CompileSession,
        key: object,
        unit: str,
        pass_name: str,
        start: float,
    ) -> Optional[CompiledProgram]:
        # Atomic check-touch-read over the session maps: a concurrent
        # eviction between membership test and read must not KeyError.
        with session._lock:
            return self._lookup_locked(session, key, unit, pass_name, start)

    def _lookup_locked(
        self,
        session: CompileSession,
        key: object,
        unit: str,
        pass_name: str,
        start: float,
    ) -> Optional[CompiledProgram]:
        if key in session._failures:
            session._touch(session._failures, key)
            session.record(
                PassTiming(unit, pass_name, time.perf_counter() - start, True, "failure", "memory")
            )
            raise _detach_failure(session._failures[key])
        compiled = session._programs.get(key)
        if compiled is not None:
            session._touch(session._programs, key)
            session.record(
                PassTiming(unit, pass_name, time.perf_counter() - start, True, "", "memory")
            )
            return compiled
        # In-memory miss: fall through to the persistent artifact store.  A
        # unit envelope is ("ok", CompiledProgram) or ("fail", DescendError);
        # anything else (corrupt, wrong shape) is ignored — cold compile.
        envelope = session.store_load("unit", key)
        if isinstance(envelope, tuple) and len(envelope) == 2:
            status, payload = envelope
            if status == "fail" and isinstance(payload, DescendError):
                session._store(session._failures, key, payload)
                session.record(
                    PassTiming(
                        unit, pass_name, time.perf_counter() - start, True, "failure", "store"
                    )
                )
                raise _detach_failure(payload)
            if status == "ok" and isinstance(payload, CompiledProgram):
                payload.session = session
                payload.key = key
                session._store(session._programs, key, payload)
                session.record(
                    PassTiming(unit, pass_name, time.perf_counter() - start, True, "", "store")
                )
                return payload
        return None

    def _typecheck(
        self,
        session: CompileSession,
        program: T.Program,
        source: Optional[SourceFile],
        key: Optional[object],
        unit: str,
    ) -> CompiledProgram:
        start = time.perf_counter()
        try:
            checked = check_program(program, source)
        except DescendError as exc:
            session.record(PassTiming(unit, PASS_TYPECK, time.perf_counter() - start, False))
            if key is not None:
                detached = _detach_failure(exc)
                session._store(session._failures, key, detached)
                session.store_put("unit", key, ("fail", detached), label="failure")
            raise
        session.record(PassTiming(unit, PASS_TYPECK, time.perf_counter() - start, False))
        compiled = CompiledProgram(
            program=program,
            checked=checked,
            source=source,
            unit=unit,
            key=key,
            session=session,
        )
        if key is not None:
            session._store(session._programs, key, compiled)
            # Persist a session-free copy: the loading process re-binds the
            # session (and key) when it pulls the program back out.
            session.store_put(
                "unit", key, ("ok", replace(compiled, key=None, session=None)), label="program"
            )
        return compiled

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
