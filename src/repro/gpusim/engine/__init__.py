"""Execution engines of the GPU simulator.

The simulator can execute a kernel launch with one of three interchangeable
engines:

* ``"reference"`` (:mod:`repro.gpusim.engine.reference`) — the original
  generator-based interpreter: every thread is a Python generator, barriers
  are ``yield`` points, and every memory access is recorded individually.
  It detects barrier divergence and is the semantic baseline.
* ``"vectorized"`` (:mod:`repro.gpusim.engine.vectorized`) — the
  warp-vectorized engine: all threads of the whole grid execute in lockstep
  over numpy index arrays, memory accesses are bulk gathers/scatters, and the
  cost model and race detector receive batched access records.  It produces
  *identical* cycle counts and race verdicts at a fraction of the wall-clock
  time.  Its runner, :func:`~repro.gpusim.engine.vectorized.run_lockstep`,
  runs a per-thread kernel as written, with one ``ctx.sync()`` per
  ``yield``.  A kernel whose threads branch on their own index passes the
  condition as the ``where=`` predicate of its loads, stores and
  arithmetic, so every engine runs the one body.
* ``"jit"`` (:mod:`repro.gpusim.engine.jit`) — a second name for the same
  lockstep runner.  A Descend kernel runs on both as its generated plan
  source (straight-line Python emitted by the ``lower.plan.codegen`` pass).

All engines share one accounting core: ``GpuDevice.launch`` builds a
:class:`JitCostModel` and a :class:`~repro.gpusim.races.RaceDetector` for
every launch, so every launch is race-checked.  The reference engine feeds
their scalar paths, where the cost model folds each access on arrival into
its ``(block, warp, slot)`` group's distinct segments or addresses; the
others feed their batched ones.

Engines are selected per device (``GpuDevice(execution_mode=...)``) or per
launch (``device.launch(..., execution_mode=...)``).
"""

from repro.gpusim.engine.base import (
    EXECUTION_MODES,
    EngineStats,
    ExecutionEngine,
    get_engine,
)
from repro.gpusim.engine.jit import JitCostModel, JitEngine
from repro.gpusim.engine.reference import ReferenceEngine
from repro.gpusim.engine.vectorized import VecCtx, VecStackedBuffer, VectorizedEngine

__all__ = [
    "EXECUTION_MODES",
    "EngineStats",
    "ExecutionEngine",
    "JitCostModel",
    "JitEngine",
    "ReferenceEngine",
    "VecCtx",
    "VecStackedBuffer",
    "VectorizedEngine",
    "get_engine",
]
