"""Executing Descend programs on the GPU simulator.

* :mod:`repro.descend.interp.values` — runtime values (scalars and
  buffer-backed memory regions seen through views),
* :mod:`repro.descend.interp.device` — the per-thread interpreter for GPU
  functions, packaged as a simulator kernel (barriers become ``yield``),
* :mod:`repro.descend.interp.host` — the host-side interpreter (heap
  allocation, host↔device copies, kernel launches) and the convenience API
  for launching individual GPU functions from Python.

The device-plan compiler that lowers GPU functions to batched numpy
operations for the vectorized and jit engines lives in
:mod:`repro.descend.plan` (lower → optimize → codegen over a serializable
plan IR); its public names are re-exported here for convenience —
``execution_mode="vectorized"`` or ``"jit"`` selects it per launch, with
automatic fallback to the reference interpreter for unsupported constructs.
"""

from repro.descend.interp.device import DescendKernel
from repro.descend.interp.host import ExecutionResult, HostInterpreter
from repro.descend.plan import DevicePlan, PlanUnsupported, compile_device_plan

__all__ = [
    "DescendKernel",
    "HostInterpreter",
    "ExecutionResult",
    "DevicePlan",
    "PlanUnsupported",
    "compile_device_plan",
]
