"""Memory spaces (the μ of Figure 6).

Descend annotates every reference and boxed allocation with the address
space it lives in: CPU memory (stack and heap), GPU global memory, GPU
shared (per-block) memory, or — for locals of a single GPU thread — private
memory.  A :class:`MemVar` supports polymorphism over memory spaces.
"""

from __future__ import annotations

from dataclasses import dataclass


class Memory:
    """Base class of memory-space annotations.

    Subclasses carry a ``name`` attribute with the surface-syntax spelling
    (``cpu.mem``, ``gpu.global``, ``gpu.shared``, ``gpu.local``).
    """

    __slots__ = ()

    def is_gpu(self) -> bool:
        raise NotImplementedError

    def is_cpu(self) -> bool:
        raise NotImplementedError

    def is_variable(self) -> bool:
        return False

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ConcreteMemory(Memory):
    """One of the four concrete address spaces."""

    name: str
    gpu: bool

    def is_gpu(self) -> bool:
        return self.gpu

    def is_cpu(self) -> bool:
        return not self.gpu

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class MemVar(Memory):
    """A memory-space variable (``m`` in the paper), for polymorphic functions."""

    name: str

    def is_gpu(self) -> bool:
        return False

    def is_cpu(self) -> bool:
        return False

    def is_variable(self) -> bool:
        return True

    def __str__(self) -> str:
        return self.name


#: CPU stack and heap memory.
CPU_MEM = ConcreteMemory("cpu.mem", gpu=False)
#: GPU global (device) memory, accessible by the whole grid.
GPU_GLOBAL = ConcreteMemory("gpu.global", gpu=True)
#: GPU shared memory, accessible by the threads of one block.
GPU_SHARED = ConcreteMemory("gpu.shared", gpu=True)
#: GPU private (per-thread register/local) memory.
GPU_LOCAL = ConcreteMemory("gpu.local", gpu=True)

_BY_NAME = {
    CPU_MEM.name: CPU_MEM,
    GPU_GLOBAL.name: GPU_GLOBAL,
    GPU_SHARED.name: GPU_SHARED,
    GPU_LOCAL.name: GPU_LOCAL,
}


def memory_from_name(name: str) -> Memory:
    """Look up a concrete memory space by its surface-syntax name."""
    if name in _BY_NAME:
        return _BY_NAME[name]
    return MemVar(name)


def memories_compatible(expected: Memory, found: Memory) -> bool:
    """Whether ``found`` can be used where ``expected`` is required.

    Memory variables are compatible with anything (their constraints are
    collected during generic instantiation).
    """
    if expected.is_variable() or found.is_variable():
        return True
    return expected == found
