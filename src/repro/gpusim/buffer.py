"""Memory buffers of the GPU simulator.

The simulator distinguishes the same address spaces as CUDA / Descend:

* :class:`HostBuffer` — CPU memory (the host side of ``cudaMemcpy``),
* :class:`DeviceBuffer` with ``space="global"`` — GPU global memory,
* :class:`DeviceBuffer` with ``space="shared"`` — per-block shared memory,
* :class:`DeviceBuffer` with ``space="local"`` — per-thread private memory.

Buffers are flat numpy arrays plus a logical shape; all accesses from kernels
go through :class:`repro.gpusim.launch.ThreadCtx`, which records them for the
race detector and the cost model.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import DeviceMemoryError

_buffer_ids = itertools.count(1)


def next_buffer_id() -> int:
    """Reserve a fresh buffer id (shared with the vectorized engine's buffers)."""
    return next(_buffer_ids)


#: Address spaces known to the simulator.
SPACES = ("global", "shared", "local", "host")


def _normalize_shape(shape: Sequence[int]) -> Tuple[int, ...]:
    shape = tuple(int(s) for s in shape)
    if not shape:
        shape = (1,)
    if any(s <= 0 for s in shape):
        raise DeviceMemoryError(f"invalid buffer shape {shape}")
    return shape


@dataclass
class HostBuffer:
    """A CPU-side allocation (the source/target of host<->device copies)."""

    shape: Tuple[int, ...]
    dtype: np.dtype
    data: np.ndarray
    label: str = ""
    buffer_id: int = field(default_factory=next_buffer_id)

    @staticmethod
    def from_array(array: np.ndarray, label: str = "") -> "HostBuffer":
        array = np.asarray(array)
        return HostBuffer(
            shape=tuple(array.shape),
            dtype=array.dtype,
            data=array.reshape(-1).copy(),
            label=label,
        )

    @staticmethod
    def zeros(shape: Sequence[int], dtype=np.float64, label: str = "") -> "HostBuffer":
        shape = _normalize_shape(shape)
        return HostBuffer(shape=shape, dtype=np.dtype(dtype), data=np.zeros(int(np.prod(shape)), dtype=dtype), label=label)

    @property
    def size(self) -> int:
        return int(self.data.size)

    def as_array(self) -> np.ndarray:
        return self.data.reshape(self.shape).copy()

    def __repr__(self) -> str:  # pragma: no cover
        return f"HostBuffer(id={self.buffer_id}, shape={self.shape}, dtype={self.dtype}, label={self.label!r})"


@dataclass
class DeviceBuffer:
    """A GPU-side allocation in global, shared, or private memory."""

    shape: Tuple[int, ...]
    dtype: np.dtype
    data: np.ndarray
    space: str = "global"
    label: str = ""
    buffer_id: int = field(default_factory=next_buffer_id)

    def __post_init__(self) -> None:
        if self.space not in SPACES:
            raise DeviceMemoryError(f"unknown address space {self.space!r}")

    @staticmethod
    def allocate(
        shape: Sequence[int],
        dtype=np.float64,
        space: str = "global",
        label: str = "",
        fill: Optional[float] = None,
    ) -> "DeviceBuffer":
        shape = _normalize_shape(shape)
        size = int(np.prod(shape))
        data = np.zeros(size, dtype=dtype)
        if fill is not None:
            data[:] = fill
        return DeviceBuffer(shape=shape, dtype=np.dtype(dtype), data=data, space=space, label=label)

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    @property
    def element_size(self) -> int:
        return int(self.data.itemsize)

    def check_offset(self, offset: int) -> int:
        offset = int(offset)
        if offset < 0 or offset >= self.size:
            raise DeviceMemoryError(
                f"out-of-bounds access at offset {offset} of buffer "
                f"{self.label or self.buffer_id} (size {self.size})"
            )
        return offset

    def read(self, offset: int):
        return self.data[self.check_offset(offset)]

    def write(self, offset: int, value) -> None:
        self.data[self.check_offset(offset)] = value

    def as_array(self) -> np.ndarray:
        return self.data.reshape(self.shape).copy()

    def copy_from_host(self, host: HostBuffer) -> None:
        if host.size != self.size:
            raise DeviceMemoryError(
                f"size mismatch copying host buffer of {host.size} elements into "
                f"device buffer of {self.size} elements"
            )
        self.data[:] = host.data.astype(self.dtype, copy=False)

    def copy_to_host(self, host: HostBuffer) -> None:
        if host.size != self.size:
            raise DeviceMemoryError(
                f"size mismatch copying device buffer of {self.size} elements into "
                f"host buffer of {host.size} elements"
            )
        host.data[:] = self.data.astype(host.dtype, copy=False)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"DeviceBuffer(id={self.buffer_id}, space={self.space}, shape={self.shape}, "
            f"dtype={self.dtype}, label={self.label!r})"
        )
