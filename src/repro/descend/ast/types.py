"""Data types, kinds and function types (Figure 6).

Data types ``δ`` include scalars, tuples, arrays indexed by a symbolic size,
array *views* (arrays whose elements are no longer guaranteed to be
consecutive in memory), references annotated with uniqueness and a memory
space, boxed ``@``-types, and type variables.  Function types carry generic
parameters (over data types, nats and memories) and the execution level the
function must be run at.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple

from repro.descend.ast.exec_level import ExecSpec
from repro.descend.ast.memory import Memory, MemVar
from repro.descend.nat import Nat, NatLike, as_nat, nat_equal
from repro.errors import DescendError


class Kind(enum.Enum):
    """Kinds of type-level variables (Figure 6, κ)."""

    DATA_TYPE = "dty"
    NAT = "nat"
    MEMORY = "mem"

    def __str__(self) -> str:
        return self.value


class DataType:
    """Base class of Descend data types."""

    __slots__ = ()

    def is_copyable(self) -> bool:
        """Copy semantics (scalars and shared references) vs move semantics."""
        return False

    def substitute(
        self,
        nat_subst: Optional[Mapping[str, Nat]] = None,
        mem_subst: Optional[Mapping[str, Memory]] = None,
        ty_subst: Optional[Mapping[str, "DataType"]] = None,
    ) -> "DataType":
        return self

    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass(frozen=True)
class ScalarType(DataType):
    """Built-in scalar types: ``i32``, ``u32``, ``i64``, ``f32``, ``f64``, ``bool``, ``()``."""

    name: str

    def is_copyable(self) -> bool:
        return True

    def is_numeric(self) -> bool:
        return self.name in ("i32", "u32", "i64", "f32", "f64")

    def is_float(self) -> bool:
        return self.name in ("f32", "f64")

    def is_integer(self) -> bool:
        return self.name in ("i32", "u32", "i64")

    def __str__(self) -> str:
        return self.name


I32 = ScalarType("i32")
I64 = ScalarType("i64")
U32 = ScalarType("u32")
F32 = ScalarType("f32")
F64 = ScalarType("f64")
BOOL = ScalarType("bool")
UNIT = ScalarType("()")

_SCALARS = {t.name: t for t in (I32, I64, U32, F32, F64, BOOL, UNIT)}
_SCALARS["unit"] = UNIT


def scalar_from_name(name: str) -> ScalarType:
    if name not in _SCALARS:
        raise DescendError(f"unknown scalar type {name!r}")
    return _SCALARS[name]


def is_scalar_name(name: str) -> bool:
    return name in _SCALARS


@dataclass(frozen=True)
class TupleType(DataType):
    """A tuple of data types; projections ``.fst``/``.snd`` apply to pairs."""

    elems: Tuple[DataType, ...]

    def is_copyable(self) -> bool:
        return all(elem.is_copyable() for elem in self.elems)

    def substitute(self, nat_subst=None, mem_subst=None, ty_subst=None) -> DataType:
        return TupleType(tuple(e.substitute(nat_subst, mem_subst, ty_subst) for e in self.elems))

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.elems) + ")"


@dataclass(frozen=True)
class ArrayType(DataType):
    """``[δ; η]`` — an array of ``size`` elements, consecutive in memory."""

    elem: DataType
    size: Nat

    def substitute(self, nat_subst=None, mem_subst=None, ty_subst=None) -> DataType:
        size = self.size.substitute(nat_subst) if nat_subst else self.size
        return ArrayType(self.elem.substitute(nat_subst, mem_subst, ty_subst), size)

    def shape(self) -> Tuple[Nat, ...]:
        """The nested array shape, outermost dimension first."""
        inner: Tuple[Nat, ...] = ()
        if isinstance(self.elem, (ArrayType, ArrayViewType)):
            inner = self.elem.shape()
        return (self.size,) + inner

    def element_scalar(self) -> DataType:
        """The innermost non-array element type."""
        if isinstance(self.elem, (ArrayType, ArrayViewType)):
            return self.elem.element_scalar()
        return self.elem

    def __str__(self) -> str:
        return f"[{self.elem}; {self.size}]"


@dataclass(frozen=True)
class ArrayViewType(DataType):
    """``[[δ; η]]`` — an array view; elements need not be consecutive in memory."""

    elem: DataType
    size: Nat

    def substitute(self, nat_subst=None, mem_subst=None, ty_subst=None) -> DataType:
        size = self.size.substitute(nat_subst) if nat_subst else self.size
        return ArrayViewType(self.elem.substitute(nat_subst, mem_subst, ty_subst), size)

    def shape(self) -> Tuple[Nat, ...]:
        inner: Tuple[Nat, ...] = ()
        if isinstance(self.elem, (ArrayType, ArrayViewType)):
            inner = self.elem.shape()
        return (self.size,) + inner

    def element_scalar(self) -> DataType:
        if isinstance(self.elem, (ArrayType, ArrayViewType)):
            return self.elem.element_scalar()
        return self.elem

    def __str__(self) -> str:
        return f"[[{self.elem}; {self.size}]]"


@dataclass(frozen=True)
class RefType(DataType):
    """``&[uniq] μ δ`` — a (possibly unique) reference into memory space μ."""

    uniq: bool
    mem: Memory
    referent: DataType

    def is_copyable(self) -> bool:
        # Shared references are Copy (like Rust); unique references are moved.
        return not self.uniq

    def substitute(self, nat_subst=None, mem_subst=None, ty_subst=None) -> DataType:
        mem = self.mem
        if mem_subst and isinstance(mem, MemVar) and mem.name in mem_subst:
            mem = mem_subst[mem.name]
        return RefType(self.uniq, mem, self.referent.substitute(nat_subst, mem_subst, ty_subst))

    def __str__(self) -> str:
        qualifier = "uniq " if self.uniq else ""
        return f"&{qualifier}{self.mem} {self.referent}"


@dataclass(frozen=True)
class AtType(DataType):
    """``δ @ μ`` — a boxed value allocated in memory space μ (smart pointer)."""

    inner: DataType
    mem: Memory

    def substitute(self, nat_subst=None, mem_subst=None, ty_subst=None) -> DataType:
        mem = self.mem
        if mem_subst and isinstance(mem, MemVar) and mem.name in mem_subst:
            mem = mem_subst[mem.name]
        return AtType(self.inner.substitute(nat_subst, mem_subst, ty_subst), mem)

    def __str__(self) -> str:
        return f"{self.inner} @ {self.mem}"


@dataclass(frozen=True)
class TyVar(DataType):
    """A data-type variable bound by a polymorphic function."""

    name: str

    def substitute(self, nat_subst=None, mem_subst=None, ty_subst=None) -> DataType:
        if ty_subst and self.name in ty_subst:
            return ty_subst[self.name]
        return self

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class GenericParam:
    """A type-level parameter of a polymorphic function: ``n: nat``, ``m: mem``, ``d: dty``."""

    name: str
    kind: Kind

    def __str__(self) -> str:
        return f"{self.name}: {self.kind}"


@dataclass(frozen=True)
class WhereClause:
    """A constraint over nats, e.g. ``n % k == 0`` or ``n >= k``."""

    lhs: Nat
    op: str  # "==", ">=", "<=", "%=="  (lhs % rhs == 0)
    rhs: Nat

    def __str__(self) -> str:
        if self.op == "%==":
            return f"{self.lhs} % {self.rhs} == 0"
        return f"{self.lhs} {self.op} {self.rhs}"


@dataclass(frozen=True)
class FnType:
    """The type of a (possibly polymorphic) Descend function."""

    generics: Tuple[GenericParam, ...]
    params: Tuple[DataType, ...]
    exec_spec: ExecSpec
    ret: DataType
    where: Tuple[WhereClause, ...] = ()

    def __str__(self) -> str:
        generics = ""
        if self.generics:
            generics = "<" + ", ".join(str(g) for g in self.generics) + ">"
        params = ", ".join(str(p) for p in self.params)
        return f"fn{generics}({params}) -[{self.exec_spec}]-> {self.ret}"


# ---------------------------------------------------------------------------
# Structural type equality (modulo nat normalisation)
# ---------------------------------------------------------------------------


def types_equal(a: DataType, b: DataType) -> bool:
    """Structural equality of data types with symbolic size comparison."""
    if isinstance(a, ScalarType) and isinstance(b, ScalarType):
        return a.name == b.name
    if isinstance(a, TupleType) and isinstance(b, TupleType):
        return len(a.elems) == len(b.elems) and all(
            types_equal(x, y) for x, y in zip(a.elems, b.elems)
        )
    if isinstance(a, ArrayType) and isinstance(b, ArrayType):
        return nat_equal(a.size, b.size) and types_equal(a.elem, b.elem)
    if isinstance(a, ArrayViewType) and isinstance(b, ArrayViewType):
        return nat_equal(a.size, b.size) and types_equal(a.elem, b.elem)
    # An array may be used where a view of the same shape is expected
    # (the identity view); the converse is not allowed.
    if isinstance(a, ArrayViewType) and isinstance(b, ArrayType):
        return nat_equal(a.size, b.size) and types_equal(a.elem, b.elem)
    if isinstance(a, RefType) and isinstance(b, RefType):
        return (
            a.uniq == b.uniq
            and str(a.mem) == str(b.mem)
            and types_equal(a.referent, b.referent)
        )
    if isinstance(a, AtType) and isinstance(b, AtType):
        return str(a.mem) == str(b.mem) and types_equal(a.inner, b.inner)
    if isinstance(a, TyVar) and isinstance(b, TyVar):
        return a.name == b.name
    return False


def assignable(expected: DataType, found: DataType) -> bool:
    """Whether a value of type ``found`` can be used where ``expected`` is required.

    This is structural equality plus two conversions used pervasively in the
    paper's examples: an array is usable as an array view of the same shape,
    and a unique reference is usable where a shared reference is expected.
    """
    if types_equal(expected, found):
        return True
    if isinstance(expected, ArrayViewType) and isinstance(found, ArrayType):
        return nat_equal(expected.size, found.size) and assignable(expected.elem, found.elem)
    if isinstance(expected, RefType) and isinstance(found, RefType):
        if expected.uniq and not found.uniq:
            return False
        if str(expected.mem) != str(found.mem) and not (
            expected.mem.is_variable() or found.mem.is_variable()
        ):
            return False
        return assignable(expected.referent, found.referent)
    if isinstance(expected, ScalarType) and isinstance(found, ScalarType):
        # Integer literals may flow into any numeric scalar.
        return expected.is_numeric() and found.is_numeric() and expected.is_float() == found.is_float()
    return False


# ---------------------------------------------------------------------------
# Convenience constructors used by the builder API and the prelude
# ---------------------------------------------------------------------------


def array(elem: DataType, size: NatLike) -> ArrayType:
    return ArrayType(elem, as_nat(size))


def array2d(elem: DataType, rows: NatLike, cols: NatLike) -> ArrayType:
    return ArrayType(ArrayType(elem, as_nat(cols)), as_nat(rows))


def view_of(elem: DataType, size: NatLike) -> ArrayViewType:
    return ArrayViewType(elem, as_nat(size))


def shared_ref(mem: Memory, referent: DataType) -> RefType:
    return RefType(False, mem, referent)


def uniq_ref(mem: Memory, referent: DataType) -> RefType:
    return RefType(True, mem, referent)


def boxed(inner: DataType, mem: Memory) -> AtType:
    return AtType(inner, mem)
