"""The reference engine: the original per-thread generator interpreter.

Every thread of every block runs as its own Python generator
(:func:`repro.gpusim.launch.run_block`); barriers are ``yield`` points and
barrier divergence is detected.  This engine defines the simulator's
semantics — the vectorized engine is validated against it.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.gpusim.cost import CostModel
from repro.gpusim.engine.base import Dim3, EngineStats, ExecutionEngine
from repro.gpusim.launch import _iter_indices, run_block
from repro.gpusim.races import RaceDetector


class ReferenceEngine(ExecutionEngine):
    """Runs each block with the generator-based per-thread interpreter."""

    name = "reference"

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
        stats = EngineStats()
        for block_idx in _iter_indices(grid_dim):
            block_stats = run_block(
                kernel=kernel,
                args=tuple(args),
                block_idx=block_idx,
                block_dim=block_dim,
                grid_dim=grid_dim,
                cost=cost,
                races=races,
                warp_size=warp_size,
            )
            stats.barriers += block_stats.barriers
        return stats
