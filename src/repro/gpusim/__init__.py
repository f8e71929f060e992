"""A GPU simulator: the execution substrate for the Descend reproduction.

The paper evaluates Descend by compiling it to CUDA and running on a Tesla
P100.  Offline, this package provides the closest synthetic equivalent: a
simulator with

* host / global / shared / private memory spaces (:mod:`repro.gpusim.buffer`),
* a grid / block / thread execution model with block-wide barriers
  (:mod:`repro.gpusim.launch`),
* a dynamic data-race detector (:mod:`repro.gpusim.races`),
* an analytic cost model with warp-level coalescing of global-memory
  transactions and shared-memory bank conflicts (:mod:`repro.gpusim.cost`),
* a device front-end with ``malloc`` / ``memcpy`` / ``launch``
  (:mod:`repro.gpusim.device`),
* three interchangeable execution engines (:mod:`repro.gpusim.engine`):
  ``"reference"`` (per thread), ``"vectorized"`` (lockstep) and ``"jit"``
  (generated plan source), which record into one accounting core and give
  identical cycle counts; the last two are an order of magnitude faster.

Kernels are Python *generator functions* ``kernel(ctx, *args)``; ``yield``
acts as ``__syncthreads()``.  Both the handwritten CUDA-lite baselines and
the Descend interpreter execute on this substrate, so the relative runtimes
reported in the benchmark harness compare like with like.
"""

from repro.gpusim.buffer import DeviceBuffer, HostBuffer
from repro.gpusim.cost import CostModel, CostParameters, KernelCost
from repro.gpusim.device import GpuDevice, LaunchResult
from repro.gpusim.engine import EXECUTION_MODES, VecCtx, get_engine, vectorized_impl
from repro.gpusim.launch import ThreadCtx
from repro.gpusim.races import RaceDetector, RaceReport

__all__ = [
    "DeviceBuffer",
    "HostBuffer",
    "CostModel",
    "CostParameters",
    "KernelCost",
    "GpuDevice",
    "LaunchResult",
    "ThreadCtx",
    "RaceDetector",
    "RaceReport",
    "EXECUTION_MODES",
    "VecCtx",
    "get_engine",
    "vectorized_impl",
]
