"""The device-plan subsystem: lower → optimize → codegen, as data.

A GPU Descend function is *compiled once* into a
:class:`~repro.descend.plan.ir.DevicePlan` — a flat program of frozen
dataclass ops over an explicit slot table — and the plan's generated source
runs once per launch against the grid-wide
:class:`~repro.gpusim.engine.vectorized.VecCtx` of the ``vectorized`` and
``jit`` engines.

The three stages:

* :mod:`repro.descend.plan.lower` — AST → plan IR (no callables, no
  optimization); raises :class:`PlanUnsupported` for constructs that need
  the reference engine (``sync`` under divergence, structured ops nested
  deeper than :data:`~repro.descend.plan.lower.MAX_NESTING`),
* :mod:`repro.descend.plan.optimize` — the ``lower.plan.opt`` pass pipeline
  (constant folding of closed nats, adjacent-arith fusion, dead-slot
  elimination),
* :mod:`repro.descend.plan.codegen` — the ``lower.plan.codegen`` pass,
  total over every plan the lowering accepts: the optimized IR becomes a
  straight-line Python source function (:class:`PlanSource`), the only
  batched executor of a plan.  Helpers for the generated code live in
  :mod:`repro.descend.plan.runtime`; the per-thread reference interpreter
  stays the cycle/race parity oracle.

Because plans and their sources are plain data they pickle: the persistent
artifact store keeps them as first-class ``plan`` and ``plan-src``
artifacts, warm CLI invocations and sweep workers deserialize instead of
re-lowering, and ``repro.cli plan`` disassembles them
(:func:`~repro.descend.plan.ir.disassemble`).

Caching lives one layer up, in
:class:`~repro.descend.driver.CompileSession` (content-hash keyed, with
the persistent store underneath); this package is purely functional.
"""

from __future__ import annotations

from repro.descend.plan.codegen import PlanSource, generate_plan_source
from repro.descend.plan.ir import DevicePlan, disassemble
from repro.descend.plan.lower import PlanUnsupported, compile_device_plan, lower_device_plan
from repro.descend.plan.optimize import PASSES, optimize_plan

__all__ = [
    "DevicePlan",
    "PlanSource",
    "PlanUnsupported",
    "PASSES",
    "compile_device_plan",
    "disassemble",
    "generate_plan_source",
    "lower_device_plan",
    "optimize_plan",
]
