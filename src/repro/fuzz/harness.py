"""The differential oracle: every property one fuzz case must satisfy.

Properties, numbered the way the reports name them:

* ``print-parse-roundtrip`` — the printed program parses back and re-prints
  byte-identically, and the builder-AST verdict agrees with the source
  verdict (the surface syntax is a faithful serialization).
* ``verdict-determinism`` — two cold compiles (fresh sessions) agree on
  accept/reject, the error code, and the *bytes* of the rendered diagnostic.
* ``diagnostic-cache-stability`` — within one session, the cached verdict
  (second compile) renders byte-identically to the cold one.
* ``execution-mode-honored`` — when a plan (and so its generated source)
  exists, asking for an engine runs that engine; no silent fallback.
* ``engine-parity`` — the reference and vectorized engines agree on
  cycles, barriers, race reports, and every output buffer (``jit`` names
  the vectorized engine's lockstep runner, so it is not run again).
* ``well-typed-race-free`` — the paper's theorem, checked mechanically: a
  program the type checker accepts produces an *empty* race report on every
  engine.
* ``raw-vs-optimized-plan`` — the generated sources of the raw
  (unoptimized) plan and of the optimized plan give identical cycles,
  barriers, and buffers.

:func:`check_spec` runs all of them on one generated spec;
:func:`check_source` runs the source-level subset (everything except the
builder-AST agreement) on a ``.descend`` text — the entry point replay and
the corpus seeds use, so a persisted repro re-checks exactly like a fresh
case.  Everything is deterministic: input buffers derive from the case
index, sessions are scoped fresh, and no wall-clock or PRNG state leaks in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.descend import api
from repro.descend.ast.printer import print_program
from repro.descend.ast.types import ArrayType, RefType
from repro.descend.driver import session_scope
from repro.descend.interp.device import DescendKernel
from repro.descend.source import SourceFile
from repro.errors import DescendError
from repro.fuzz.generate import KernelSpec, build_program
from repro.gpusim import GpuDevice

ENGINES = ("reference", "vectorized")

#: The property names, in check order (reports aggregate by these).
PROPERTIES = (
    "print-parse-roundtrip",
    "verdict-determinism",
    "diagnostic-cache-stability",
    "execution-mode-honored",
    "engine-parity",
    "well-typed-race-free",
    "raw-vs-optimized-plan",
)

#: Unit name every fuzz compile uses: it appears in rendered diagnostics, so
#: keeping it constant keeps diagnostics byte-comparable across runs.
UNIT_NAME = "<fuzz>"


@dataclass
class Violation:
    prop: str
    detail: str

    def as_dict(self) -> Dict[str, str]:
        return {"property": self.prop, "detail": self.detail}


@dataclass
class CaseResult:
    """Everything one case produced (the fuzz report aggregates these)."""

    source: str
    verdict: str  # "well-typed" | "rejected"
    error_code: str = ""
    diagnostic: str = ""
    violations: List[Violation] = field(default_factory=list)
    fallbacks: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def failing_properties(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(v.prop for v in self.violations))


# ---------------------------------------------------------------------------
# Compilation verdicts
# ---------------------------------------------------------------------------


def _verdict_of_source(source: str) -> Tuple[str, str, str, Optional[object]]:
    """``(verdict, code, rendered, compiled)`` of one cold compile."""
    with session_scope():
        try:
            compiled = api.compile_source(source, UNIT_NAME)
        except DescendError as exc:
            rendered = api.render_failure(exc, SourceFile(source, UNIT_NAME)) or str(exc)
            code = getattr(getattr(exc, "diagnostic", None), "code", "") or ""
            return ("rejected", code, rendered, None)
        return ("well-typed", "", "", compiled)


def _cached_rejection(source: str) -> Tuple[str, str]:
    """Cold vs cached rendering of a rejection inside *one* session."""
    renders = []
    with session_scope():
        for _ in range(2):
            try:
                api.compile_source(source, UNIT_NAME)
                renders.append("")
            except DescendError as exc:
                renders.append(
                    api.render_failure(exc, SourceFile(source, UNIT_NAME)) or str(exc)
                )
    return renders[0], renders[1]


# ---------------------------------------------------------------------------
# Deterministic input data
# ---------------------------------------------------------------------------


def _param_shape(p) -> Tuple[int, ...]:
    """Concrete array shape of a kernel parameter (empty tuple = scalar)."""
    ty = p.ty
    if isinstance(ty, RefType):
        ty = ty.referent
    shape = []
    while isinstance(ty, ArrayType):
        shape.append(int(ty.size.evaluate({})))
        ty = ty.elem
    return tuple(shape)


def _case_args(fun_def, device: GpuDevice, index: int) -> Dict[str, object]:
    """Per-parameter buffers, derived only from (parameter position, index).

    Values live on the quarter grid like the generator's literals, so the
    generated ``==`` / ``!=`` comparisons genuinely split the threads.
    """
    args: Dict[str, object] = {}
    for i, p in enumerate(fun_def.params):
        shape = _param_shape(p)
        if not shape:
            args[p.name] = 1.5
            continue
        count = int(np.prod(shape))
        flat = ((np.arange(count, dtype=np.float64) * (3 + 2 * i) + index) % 17) * 0.25
        args[p.name] = device.to_device(flat.reshape(shape))
    return args


def _buffers(device: GpuDevice, args: Dict[str, object]) -> Dict[str, np.ndarray]:
    return {
        name: device.to_host(buf).copy()
        for name, buf in args.items()
        if not isinstance(buf, float)
    }


def _race_key(report) -> tuple:
    def access(acc) -> tuple:
        return (acc.buffer_label, acc.offset, acc.block, acc.thread, acc.epoch, acc.is_write)

    # order-insensitive: the reference engine may report the pair swapped
    return tuple(sorted((access(report.first), access(report.second))))


# ---------------------------------------------------------------------------
# Differential execution
# ---------------------------------------------------------------------------


def _check_execution(compiled, index: int, result: CaseResult) -> None:
    """Engine parity, race freedom, and raw-vs-optimized plan agreement."""
    from repro.descend.plan import generate_plan_source, lower_device_plan

    for fun_def in compiled.program.gpu_functions():
        name = fun_def.name
        plan, plan_reason = compiled.device_plan(name)
        plan_src, src_reason = compiled.plan_source(name)
        if plan is None:
            result.fallbacks[f"{name}:plan"] = str(plan_reason)
        if plan_src is None:
            result.fallbacks[f"{name}:jit"] = str(src_reason)

        runs = {}
        for engine in ENGINES:
            device = GpuDevice()
            args = _case_args(fun_def, device, index)
            kernel = compiled.kernel(name)
            launch = kernel.launch(device, args, detect_races=True, execution_mode=engine)
            expect_honored = engine == "reference" or plan_src is not None
            if expect_honored and launch.execution_mode != engine:
                result.violations.append(
                    Violation(
                        "execution-mode-honored",
                        f"{name}: asked for {engine}, ran {launch.execution_mode} "
                        f"({kernel.fallback_reason})",
                    )
                )
            races = sorted(_race_key(r) for r in launch.races)
            if races:
                result.violations.append(
                    Violation(
                        "well-typed-race-free",
                        f"{name}: {engine} engine reported {len(races)} race(s) "
                        f"on a well-typed program",
                    )
                )
            runs[engine] = (launch.cycles, launch.barriers, races, _buffers(device, args))

        ref_cycles, ref_barriers, ref_races, ref_buffers = runs["reference"]
        for engine in ENGINES[1:]:
            cycles, barriers, races, buffers = runs[engine]
            if cycles != ref_cycles or barriers != ref_barriers:
                result.violations.append(
                    Violation(
                        "engine-parity",
                        f"{name}: {engine} cost ({cycles}, {barriers}) != "
                        f"reference ({ref_cycles}, {ref_barriers})",
                    )
                )
            if races != ref_races:
                result.violations.append(
                    Violation(
                        "engine-parity",
                        f"{name}: {engine} race report differs from reference",
                    )
                )
            for buf, values in ref_buffers.items():
                if not np.array_equal(buffers[buf], values):
                    result.violations.append(
                        Violation(
                            "engine-parity",
                            f"{name}: {engine} buffer `{buf}` differs from reference",
                        )
                    )

        # raw vs optimized plan: inject each one's generated source into a
        # kernel handle and compare (the optimized plan lowered, so the raw
        # one does too)
        if plan is not None:
            raw = lower_device_plan(fun_def)
            injected = {}
            for label, injected_plan in (("raw", raw), ("optimized", plan)):
                device = GpuDevice()
                args = _case_args(fun_def, device, index)
                kernel = DescendKernel(compiled.program, name)
                kernel._plan_source_entry = (generate_plan_source(injected_plan), None)
                launch = kernel.launch(
                    device, args, detect_races=True, execution_mode="vectorized"
                )
                injected[label] = (
                    launch.cycles,
                    launch.barriers,
                    _buffers(device, args),
                )
            raw_run, opt_run = injected["raw"], injected["optimized"]
            if raw_run[0] != opt_run[0] or raw_run[1] != opt_run[1]:
                result.violations.append(
                    Violation(
                        "raw-vs-optimized-plan",
                        f"{name}: cost ({raw_run[0]}, {raw_run[1]}) raw vs "
                        f"({opt_run[0]}, {opt_run[1]}) optimized",
                    )
                )
            for buf, values in raw_run[2].items():
                if not np.array_equal(opt_run[2][buf], values):
                    result.violations.append(
                        Violation(
                            "raw-vs-optimized-plan",
                            f"{name}: buffer `{buf}` differs raw vs optimized",
                        )
                    )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def check_source(source: str, index: int = 0) -> CaseResult:
    """Run every source-level property on one ``.descend`` text."""
    verdict1, code1, rendered1, compiled = _verdict_of_source(source)
    result = CaseResult(
        source=source, verdict=verdict1, error_code=code1, diagnostic=rendered1
    )

    # verdict-determinism: an independent cold compile must agree byte-for-byte
    verdict2, code2, rendered2, compiled2 = _verdict_of_source(source)
    if (verdict1, code1, rendered1) != (verdict2, code2, rendered2):
        result.violations.append(
            Violation(
                "verdict-determinism",
                f"cold compiles disagree: ({verdict1}, {code1}) vs ({verdict2}, {code2})",
            )
        )
        return result

    if verdict1 == "rejected":
        cold, cached = _cached_rejection(source)
        if cold != cached:
            result.violations.append(
                Violation(
                    "diagnostic-cache-stability",
                    "cached diagnostic differs from cold diagnostic",
                )
            )
        return result

    # print-parse-roundtrip (source level): re-printing the parsed program
    # must be a fixpoint, so the printed form is a canonical serialization
    reprinted = print_program(compiled.program)
    if reprinted != source:
        reparsed_verdict, reparsed_code, _, recompiled = _verdict_of_source(reprinted)
        if reparsed_verdict != verdict1 or recompiled is None:
            result.violations.append(
                Violation(
                    "print-parse-roundtrip",
                    f"re-printed source changed verdict to {reparsed_verdict} "
                    f"({reparsed_code})",
                )
            )
            return result

    _check_execution(compiled, index, result)
    return result


def check_spec(spec: KernelSpec, index: int = 0) -> CaseResult:
    """Run every property on one generated spec (AST + source levels)."""
    program_ast = build_program(spec)
    source = print_program(program_ast)

    # builder-AST verdict, for agreement with the source verdict
    with session_scope():
        try:
            api.compile_program(program_ast)
            ast_verdict, ast_code = "well-typed", ""
        except DescendError as exc:
            ast_verdict = "rejected"
            ast_code = getattr(getattr(exc, "diagnostic", None), "code", "") or ""

    result = check_source(source, index)
    if result.verdict != ast_verdict or result.error_code != ast_code:
        result.violations.append(
            Violation(
                "print-parse-roundtrip",
                f"builder AST is {ast_verdict} ({ast_code}) but its printed "
                f"source is {result.verdict} ({result.error_code})",
            )
        )

    if result.verdict == "well-typed":
        # the printed source must round-trip exactly: parse(print(ast))
        # prints back to the same bytes
        verdict, _, _, recompiled = _verdict_of_source(source)
        if recompiled is not None:
            reprinted = print_program(recompiled.program)
            if reprinted != source:
                result.violations.append(
                    Violation(
                        "print-parse-roundtrip",
                        "print(parse(print(ast))) differs from print(ast)",
                    )
                )
    return result
