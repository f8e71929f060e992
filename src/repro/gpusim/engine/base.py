"""Engine interface, registry, and the vectorized-kernel registration API."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from repro.errors import LaunchConfigurationError
from repro.gpusim.cost import CostModel
from repro.gpusim.races import RaceDetector

Dim3 = Tuple[int, int, int]

#: Attribute linking a reference kernel to its vectorized implementation.
_VECTORIZED_ATTR = "__vectorized_impl__"
#: Attribute linking a vectorized kernel back to its reference implementation.
_REFERENCE_ATTR = "__reference_impl__"
#: Attribute linking a reference kernel to its jit-compiled implementation.
_JIT_ATTR = "__jit_impl__"


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


def vectorized_impl(reference_kernel: Callable) -> Callable[[Callable], Callable]:
    """Decorator registering a vectorized implementation for a kernel.

    Usage::

        def my_kernel(ctx, buf):          # reference, per-thread
            ...

        @vectorized_impl(my_kernel)
        def my_kernel_vec(ctx, buf):      # vectorized, per-grid
            ...

    After registration either function can be passed to
    :meth:`GpuDevice.launch`; each engine resolves the implementation it
    needs, so call sites do not change when switching modes.
    """

    def register(vec_kernel: Callable) -> Callable:
        setattr(reference_kernel, _VECTORIZED_ATTR, vec_kernel)
        setattr(vec_kernel, _VECTORIZED_ATTR, vec_kernel)
        setattr(vec_kernel, _REFERENCE_ATTR, reference_kernel)
        return vec_kernel

    return register


def resolve_vectorized(kernel: Callable) -> Optional[Callable]:
    """The vectorized implementation registered for ``kernel`` (or ``None``)."""
    return getattr(kernel, _VECTORIZED_ATTR, None)


def resolve_reference(kernel: Callable) -> Callable:
    """The reference implementation for ``kernel`` (itself if unregistered)."""
    return getattr(kernel, _REFERENCE_ATTR, kernel)


def jit_impl(reference_kernel: Callable) -> Callable[[Callable], Callable]:
    """Decorator registering a jit-compiled implementation for a kernel.

    Same registration shape as :func:`vectorized_impl`; the jit engine
    resolves this attribute.  ``DescendKernel.launch`` registers the
    plan-codegen entry here per launch.
    """

    def register(jit_kernel: Callable) -> Callable:
        setattr(reference_kernel, _JIT_ATTR, jit_kernel)
        setattr(jit_kernel, _JIT_ATTR, jit_kernel)
        setattr(jit_kernel, _REFERENCE_ATTR, reference_kernel)
        return jit_kernel

    return register


def resolve_jit(kernel: Callable) -> Optional[Callable]:
    """The jit implementation registered for ``kernel`` (or ``None``)."""
    return getattr(kernel, _JIT_ATTR, None)


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
