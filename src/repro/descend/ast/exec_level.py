"""Execution levels (the ε of Figure 6) and function execution specifications.

Every Descend function is annotated with *how* it is executed:
``-[grid: gpu.grid<X<64>, X<1024>>]->`` declares that the function body is
executed by a GPU grid of that shape, ``-[t: cpu.thread]->`` declares a host
function.  The execution level is compared at call sites (and kernel
launches) against the caller's current execution resource.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.descend.ast.dims import Dim
from repro.descend.nat import Nat


class ExecLevel:
    """Base class of execution levels."""

    __slots__ = ()

    def describe(self) -> str:
        raise NotImplementedError

    def is_gpu(self) -> bool:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.describe()


@dataclass(frozen=True)
class CpuThreadLevel(ExecLevel):
    """Executed by a single CPU thread."""

    def describe(self) -> str:
        return "cpu.thread"

    def is_gpu(self) -> bool:
        return False


@dataclass(frozen=True)
class GpuGridLevel(ExecLevel):
    """Executed by a GPU grid with the given block and thread shapes."""

    blocks: Dim
    threads: Dim

    def describe(self) -> str:
        return f"gpu.grid<{self.blocks}, {self.threads}>"

    def is_gpu(self) -> bool:
        return True

    def substitute_nats(self, mapping: Mapping[str, Nat]) -> "GpuGridLevel":
        return GpuGridLevel(self.blocks.substitute_nats(mapping), self.threads.substitute_nats(mapping))


@dataclass(frozen=True)
class GpuBlockLevel(ExecLevel):
    """Executed by a single GPU block with the given thread shape."""

    threads: Dim

    def describe(self) -> str:
        return f"gpu.block<{self.threads}>"

    def is_gpu(self) -> bool:
        return True


@dataclass(frozen=True)
class GpuThreadLevel(ExecLevel):
    """Executed by a single GPU thread."""

    def describe(self) -> str:
        return "gpu.thread"

    def is_gpu(self) -> bool:
        return True


@dataclass(frozen=True)
class ExecSpec:
    """The named execution resource in a function signature.

    ``fn foo(...) -[grid: gpu.grid<X<64>, X<1024>>]-> ()`` carries the name
    ``grid`` (bound inside the body) and the level ``gpu.grid<...>``.
    """

    name: str
    level: ExecLevel

    def describe(self) -> str:
        return f"{self.name}: {self.level.describe()}"

    def is_gpu(self) -> bool:
        return self.level.is_gpu()

    def __str__(self) -> str:
        return self.describe()
