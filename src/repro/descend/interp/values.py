"""Runtime values of the Descend interpreter."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from repro.descend.ast.types import ArrayType, ArrayViewType, DataType, ScalarType
from repro.descend.nat import evaluate_nat
from repro.descend.views.indexing import LogicalArray
from repro.errors import DescendRuntimeError
from repro.gpusim.buffer import DeviceBuffer, HostBuffer


_SCALAR_DTYPES = {
    "f64": np.float64,
    "f32": np.float32,
    "i32": np.int32,
    "i64": np.int64,
    "u32": np.uint32,
    "bool": np.bool_,
}


def numpy_dtype(ty: DataType) -> np.dtype:
    """The numpy dtype backing a scalar Descend type."""
    scalar = ty
    while isinstance(scalar, (ArrayType, ArrayViewType)):
        scalar = scalar.elem
    if isinstance(scalar, ScalarType) and scalar.name in _SCALAR_DTYPES:
        return np.dtype(_SCALAR_DTYPES[scalar.name])
    raise DescendRuntimeError(f"type `{ty}` has no runtime representation")


def static_shape(ty: DataType, nat_env) -> Tuple[int, ...]:
    """The concrete shape of an array type under the given nat bindings."""
    shape = []
    current = ty
    while isinstance(current, (ArrayType, ArrayViewType)):
        shape.append(int(evaluate_nat(current.size, nat_env)))
        current = current.elem
    return tuple(shape)


@dataclass
class MemValue:
    """A region of memory: a buffer seen through a (possibly partial) view.

    References, boxed values and whole arrays all evaluate to a ``MemValue``;
    dereferencing is a no-op at runtime (the static type system is what keeps
    the distinction meaningful).
    """

    buffer: Union[DeviceBuffer, HostBuffer]
    logical: LogicalArray
    uniq: bool = True

    @staticmethod
    def whole(buffer: Union[DeviceBuffer, HostBuffer], uniq: bool = True) -> "MemValue":
        return MemValue(buffer=buffer, logical=LogicalArray.root(tuple(buffer.shape)), uniq=uniq)

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(self.logical.shape)


Value = Union[int, float, bool, np.generic, MemValue]
