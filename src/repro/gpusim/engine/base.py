"""Engine interface and registry."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from repro.errors import LaunchConfigurationError
from repro.gpusim.cost import CostModel
from repro.gpusim.races import RaceDetector

Dim3 = Tuple[int, int, int]


@dataclass
class EngineStats:
    """What an engine reports back to the device after a launch."""

    barriers: int = 0


class ExecutionEngine(abc.ABC):
    """Executes one kernel launch over a grid and records cost/race events."""

    name: str = "abstract"

    @abc.abstractmethod
    def run(
        self,
        kernel: Callable,
        args: Sequence[object],
        grid_dim: Dim3,
        block_dim: Dim3,
        cost: Optional[CostModel],
        races: Optional[RaceDetector],
        warp_size: int = 32,
    ) -> EngineStats:
        """Execute every thread of the launch; mutates buffers in ``args``."""


#: The execution modes a device or launch can select.
EXECUTION_MODES: Tuple[str, ...] = ("reference", "vectorized", "jit")

# Engine instances are stateless; built lazily to avoid circular imports.
_ENGINES = {}


def get_engine(mode: str) -> ExecutionEngine:
    """Look up an engine instance by mode name."""
    if not _ENGINES:
        from repro.gpusim.engine.jit import JitEngine
        from repro.gpusim.engine.reference import ReferenceEngine
        from repro.gpusim.engine.vectorized import VectorizedEngine

        for engine in (ReferenceEngine(), VectorizedEngine(), JitEngine()):
            _ENGINES[engine.name] = engine
    try:
        return _ENGINES[mode]
    except KeyError:
        raise LaunchConfigurationError(
            f"unknown execution mode {mode!r}; expected one of {EXECUTION_MODES}"
        ) from None
