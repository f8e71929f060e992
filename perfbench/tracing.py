"""Span recording for the benchmark's traced run, installed from outside.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
each layer's public entry points with thin wrappers that open a span
(name, start, end, parent, request id) on a per-thread stack and bump a few
counters; :func:`uninstall` puts the originals back.  Spans stay in memory
and are written out once, when the run ends (:meth:`Tracer.dump`).

Three rules keep the numbers honest:

* A function is wrapped at the name its caller looks up.  The driver binds
  ``parse_program`` and ``check_program`` when it is imported, so those are
  wrapped on :mod:`repro.descend.driver`; the plan and CUDA entry points are
  imported inside driver functions, so they are wrapped on their packages.
* A span does not nest in a span of the same name: ``JitCostModel.finalize``
  calls ``super().finalize``, and only the outermost call is recorded
  (counting both double-counts accounting time on the jit engine).
* Every wrapper a workload declares must fire at least once
  (:meth:`Tracer.missing`), so a renamed entry point fails the traced run
  instead of silently reading zero.  A wrapper that fired in a child
  process counts as ``<process>:<key>``, so a declaration names the
  process it expects the work in.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.abc
import json
import sys
import threading
import time
from collections import Counter
from dataclasses import fields, is_dataclass
from typing import Callable, Dict, List, NamedTuple, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "child_ns", "engine")

    def __init__(self, name, start, parent, request, engine):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.child_ns = 0
        self.engine = engine

    @property
    def ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name, "start": self.start, "end": self.end, "parent": self.parent,
            "request": self.request, "self_ns": self.self_ns, "engine": self.engine,
        }


class Tracer:
    """In-memory spans and counters of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.maxima: Dict[str, float] = {}
        self.fired: set = set()
        #: Every ArtifactStore opened while tracing: their error counters are
        #: summed into ``store.errors`` when the counts are read.
        self.stores: list = []
        #: Off while the benchmark computes its oracle answers in-process,
        #: so only the measured program's work is attributed to layers.
        self.enabled = True
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, request: Optional[str] = None,
             engine: Optional[str] = None) -> Optional[Span]:
        """Start a span, or ``None`` when a span of that name is already open
        on this thread (a subclass method calling its base)."""
        stack = self._stack()
        spans = self.spans
        parent = None
        if stack:
            parent = stack[-1]
            outer = spans[parent]
            if request is None:
                request = outer.request
            if engine is None:
                engine = outer.engine
            for index in stack:
                if spans[index].name == name:
                    return None
        span = Span(name, time.perf_counter_ns(), parent, request, engine)
        with self._lock:
            spans.append(span)
            stack.append(len(spans) - 1)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_ns += span.ns

    def count(self, key: str, by: float = 1) -> None:
        with self._lock:
            self.counts[key] += by

    def maximum(self, key: str, value: float) -> None:
        with self._lock:
            if value > self.maxima.get(key, float("-inf")):
                self.maxima[key] = value

    @contextlib.contextmanager
    def paused(self):
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        return any(self.spans[index].name == name for index in self._stack())

    def settled_counts(self) -> Counter:
        counts = Counter(self.counts)
        counts["store.errors"] += sum(store.errors for store in self.stores)
        return counts

    # -- persistence (child processes hand their spans to the parent) ---------
    def dump(self, path: str) -> None:
        payload = {
            "spans": [span.as_dict() for span in self.spans],
            "counts": dict(self.settled_counts()),
            "maxima": self.maxima,
            "fired": sorted(self.fired),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

    def merge_file(self, path: str, process: str) -> bool:
        """Fold a child's dump in; its spans and fired wrappers are tagged
        with ``process``.  Returns False when the child wrote no dump."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return False
        base = len(self.spans)
        for raw in payload["spans"]:
            span = Span(f"{process}:{raw['name']}", raw["start"], None, raw["request"], raw["engine"])
            span.end = raw["end"]
            span.parent = None if raw["parent"] is None else raw["parent"] + base
            span.child_ns = raw["end"] - raw["start"] - raw["self_ns"]
            self.spans.append(span)
        self.counts.update(payload["counts"])
        for key, value in payload["maxima"].items():
            self.maximum(key, value)
        self.fired.update(f"{process}:{key}" for key in payload["fired"])
        return True

    def missing(self, declared) -> List[str]:
        return sorted(set(declared) - self.fired)


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def _count_plan_ops(ops) -> int:
    total = 0
    for op in ops or ():
        total += 1
        if is_dataclass(op):
            for field in fields(op):
                value = getattr(op, field.name)
                if isinstance(value, tuple) and value and all(
                    type(item).__name__.endswith("Op") for item in value
                ):
                    total += _count_plan_ops(value)
    return total


def _engine_of_launch(args, kwargs) -> Optional[str]:
    device = args[0]
    return kwargs.get("execution_mode") or device.execution_mode


def _span_wrapper(tracer: Tracer, key: str, original: Callable, wrap: "Wrap") -> Callable:
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return original(*args, **kwargs)
        tracer.fired.add(key)
        span = tracer.open(
            wrap.span,
            request=wrap.request_of(args) if wrap.request_of else None,
            engine=wrap.engine_of(args, kwargs) if wrap.engine_of else None,
        )
        if span is None:
            return original(*args, **kwargs)
        try:
            result = original(*args, **kwargs)
        except BaseException as exc:
            tracer.close(span)
            if wrap.after is not None:
                wrap.after(tracer, args, None, exc)
            raise
        tracer.close(span)
        if wrap.after is not None:
            wrap.after(tracer, args, result, None)
        return result

    wrapper.__wrapped__ = original
    return wrapper


def _counter_wrapper(tracer: Tracer, key: str, original: Callable, wrap: "Wrap") -> Callable:
    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        if tracer.enabled:
            tracer.fired.add(key)
            wrap.after(tracer, args, result, None)
        return result

    wrapper.__wrapped__ = original
    return wrapper


# -- per-wrapper post hooks (counters measured where the work happens) --------


def _after_check(tracer, args, result, exc):
    if exc is not None:
        tracer.count("typeck.rejected")


def _after_optimize(tracer, args, result, exc):
    if exc is None:
        tracer.count("plan.ir_ops", _count_plan_ops(result[0].body))


def _after_codegen(tracer, args, result, exc):
    if exc is None:
        tracer.count("plan.src_lines", result.source.count("\n"))


def _after_record(tracer, args, result, exc):
    tracer.count(f"driver.{result.tier}")


def _after_store_put(tracer, args, result, exc):
    if result:
        tracer.count("store.writes")


def _after_store_open(tracer, args, result, exc):
    if exc is None:
        tracer.stores.append(args[0])


def _after_index_update(tracer, args, result, exc):
    backend = args[0]
    try:
        tracer.maximum("store.index_bytes", backend.root.joinpath("index.json").stat().st_size)
    except OSError:
        pass


def _after_connect(tracer, args, result, exc):
    # One connect() per attempt inside DescendClient.handle; the readiness
    # probe's own connects are not request attempts.
    if tracer.inside("client.handle"):
        tracer.count("client.attempts")


def _after_client_handle(tracer, args, result, exc):
    tracer.count("client.requests")


def _after_kernel_launch(tracer, args, result, exc):
    if exc is None and args[0].fallback_reason is not None:
        tracer.count("interp.fallbacks")


def _after_device_launch(tracer, args, result, exc):
    if exc is None:
        engine = result.execution_mode
        accesses = result.cost.global_accesses + result.cost.shared_accesses
        tracer.count("gpusim.launches")
        tracer.count("gpusim.sim_cycles", result.cycles)
        tracer.count("gpusim.accesses", accesses)
        tracer.count(f"gpusim.accesses.{engine}", accesses)


def _request_id(args):
    return getattr(args[1], "id", None)


class Wrap(NamedTuple):
    """One traced entry point: ``path`` on ``module``; ``span`` is the span
    name (``None`` for a pure counter); ``after`` a post hook for counts."""

    module: str
    path: str
    span: Optional[str]
    after: Optional[Callable] = None
    engine_of: Optional[Callable] = None
    request_of: Optional[Callable] = None


#: Every traced entry point by key; workloads declare the keys that must
#: fire (:meth:`Tracer.missing`).
WRAPPERS: Dict[str, Wrap] = {
    "frontend.parse": Wrap("repro.descend.driver", "parse_program", "frontend.parse"),
    "typeck.check": Wrap("repro.descend.driver", "check_program", "typeck.check", _after_check),
    "plan.lower": Wrap("repro.descend.plan", "lower_device_plan", "plan.lower"),
    "plan.optimize": Wrap("repro.descend.plan", "optimize_plan", "plan.optimize", _after_optimize),
    "plan.codegen": Wrap("repro.descend.plan", "generate_plan_source", "plan.codegen", _after_codegen),
    "codegen.cuda": Wrap("repro.descend.codegen", "generate_cuda", "codegen.cuda"),
    "driver.record": Wrap("repro.descend.driver", "CompileSession.record", None, _after_record),
    "store.open": Wrap("repro.descend.store.cas", "ArtifactStore.__init__", "store.open", _after_store_open),
    "store.load": Wrap("repro.descend.store.cas", "ArtifactStore.load", "store.load"),
    "store.put": Wrap("repro.descend.store.cas", "ArtifactStore.store", "store.put", _after_store_put),
    "store.index_update": Wrap(
        "repro.descend.store.backend", "LocalDirBackend.index_update", "store.index_update", _after_index_update
    ),
    "api.handle": Wrap("repro.descend.api", "LocalBackend.handle", "api.handle", request_of=_request_id),
    "client.handle": Wrap(
        "repro.descend.api", "DescendClient.handle", "client.handle", _after_client_handle, request_of=_request_id
    ),
    "client.connect": Wrap("repro.descend.api", "DescendClient.connect", None, _after_connect),
    "interp.launch": Wrap("repro.descend.interp.device", "DescendKernel.launch", "interp.launch", _after_kernel_launch),
    "gpusim.launch": Wrap(
        "repro.gpusim.device", "GpuDevice.launch", "gpusim.launch", _after_device_launch, _engine_of_launch
    ),
    "gpusim.run.vectorized": Wrap("repro.gpusim.engine.vectorized", "VectorizedEngine.run", "gpusim.run"),
    "gpusim.run.jit": Wrap("repro.gpusim.engine.jit", "JitEngine.run", "gpusim.run"),
    "gpusim.cost.stock": Wrap("repro.gpusim.cost", "CostModel.finalize", "gpusim.cost"),
    "gpusim.cost.jit": Wrap("repro.gpusim.engine.jit", "JitCostModel.finalize", "gpusim.cost"),
    # JitRaceDetector only overrides the batched analysis behind check().
    "gpusim.races": Wrap("repro.gpusim.races", "RaceDetector.check", "gpusim.races"),
}


def _patch(tracer: Tracer, module, key: str, undo: list) -> None:
    wrap = WRAPPERS[key]
    owner = module
    parts = wrap.path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    # Class-level wrapping: only the class that defines the method is
    # patched, so a subclass calling super() reaches the base wrapper (and
    # the same-name rule keeps the outermost span only).
    source = owner.__dict__ if isinstance(owner, type) else vars(owner)
    if attr not in source:
        raise RuntimeError(f"traced entry point {wrap.module}.{wrap.path} does not exist ({key})")
    original = source[attr]
    make = _counter_wrapper if wrap.span is None else _span_wrapper
    wrapped = make(tracer, key, original, wrap)
    setattr(owner, attr, wrapped)
    undo.append((owner, attr, original))


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Applies pending wrappers right after their module is first imported,
    so tracing adds no imports a process would not make anyway (a CLI
    child never imports the simulator)."""

    def __init__(self, pending: Dict[str, List[str]], apply) -> None:
        self.pending = pending
        self.apply = apply

    def find_spec(self, name, path, target=None):
        if name not in self.pending:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        loader, apply, keys = spec.loader, self.apply, self.pending.pop(name)
        original_exec = loader.exec_module

        def exec_module(module):
            original_exec(module)
            apply(module, keys)

        loader.exec_module = exec_module
        return spec


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every entry point in :data:`WRAPPERS` (now if its module is
    loaded, else when it is first imported); returns the undo function."""
    undo: list = []
    pending: Dict[str, List[str]] = {}
    for key, wrap in WRAPPERS.items():
        pending.setdefault(wrap.module, []).append(key)

    def apply(module, keys) -> None:
        for key in keys:
            _patch(tracer, module, key, undo)

    for module_name in list(pending):
        if module_name in sys.modules:
            apply(sys.modules[module_name], pending.pop(module_name))
    finder = _PatchOnImport(pending, apply)
    sys.meta_path.insert(0, finder)

    def uninstall() -> None:
        if finder in sys.meta_path:
            sys.meta_path.remove(finder)
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
