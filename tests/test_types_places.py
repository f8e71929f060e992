"""Tests for data types, assignability, and place expressions."""

import pytest

from repro.descend.ast.memory import CPU_MEM, GPU_GLOBAL, GPU_SHARED, MemVar, memories_compatible, memory_from_name
from repro.descend.ast.places import PVar, place_root_name, strip_derefs
from repro.descend.ast.types import (
    ArrayType,
    ArrayViewType,
    AtType,
    BOOL,
    F32,
    F64,
    I32,
    RefType,
    TupleType,
    array,
    array2d,
    assignable,
    scalar_from_name,
    types_equal,
    uniq_ref,
)
from repro.descend.ast.views import ViewRef
from repro.errors import DescendError


class TestMemory:
    def test_lookup_by_name(self):
        assert memory_from_name("gpu.shared") is GPU_SHARED
        assert memory_from_name("cpu.mem") is CPU_MEM

    def test_unknown_name_becomes_variable(self):
        mem = memory_from_name("m")
        assert isinstance(mem, MemVar)
        assert mem.is_variable()

    def test_compatibility(self):
        assert memories_compatible(GPU_GLOBAL, GPU_GLOBAL)
        assert not memories_compatible(GPU_GLOBAL, CPU_MEM)
        assert memories_compatible(MemVar("m"), CPU_MEM)

    def test_gpu_cpu_predicates(self):
        assert GPU_GLOBAL.is_gpu() and not GPU_GLOBAL.is_cpu()
        assert CPU_MEM.is_cpu() and not CPU_MEM.is_gpu()


class TestTypes:
    def test_scalar_lookup(self):
        assert scalar_from_name("f64") is F64
        with pytest.raises(DescendError):
            scalar_from_name("f16")

    def test_array_shape(self):
        ty = array2d(F64, 4, 8)
        assert [s.evaluate({}) for s in ty.shape()] == [4, 8]
        assert ty.element_scalar() is F64

    def test_types_equal_modulo_nat(self):
        from repro.descend.nat import as_nat

        a = array(F64, as_nat(2) + 2)
        b = array(F64, 4)
        assert types_equal(a, b)

    def test_array_usable_as_view(self):
        assert assignable(ArrayViewType(F64, array(F64, 4).size), array(F64, 4))
        assert not assignable(array(F64, 4), ArrayViewType(F64, array(F64, 4).size))

    def test_ref_assignability(self):
        uniq = RefType(True, GPU_GLOBAL, array(F64, 8))
        shared = RefType(False, GPU_GLOBAL, array(F64, 8))
        assert assignable(shared, uniq)  # uniq can be used where shared is expected
        assert not assignable(uniq, shared)

    def test_ref_memory_mismatch(self):
        gpu = RefType(False, GPU_GLOBAL, F64)
        cpu = RefType(False, CPU_MEM, F64)
        assert not assignable(gpu, cpu)

    def test_copyability(self):
        assert F64.is_copyable()
        assert not array(F64, 4).is_copyable()
        assert RefType(False, GPU_GLOBAL, F64).is_copyable()
        assert not RefType(True, GPU_GLOBAL, F64).is_copyable()
        assert TupleType((I32, BOOL)).is_copyable()
        assert not AtType(array(F64, 4), CPU_MEM).is_copyable()

    def test_substitution_of_nats_and_memories(self):
        from repro.descend.nat import NatConst, NatVar

        ty = RefType(True, MemVar("m"), ArrayType(F32, NatVar("n")))
        result = ty.substitute(nat_subst={"n": NatConst(16)}, mem_subst={"m": GPU_GLOBAL})
        assert str(result) == "&uniq gpu.global [f32; 16]"

    def test_string_rendering(self):
        assert str(uniq_ref(GPU_GLOBAL, array(F64, 8))) == "&uniq gpu.global [f64; 8]"
        assert str(AtType(array(I32, 4), CPU_MEM)) == "[i32; 4] @ cpu.mem"


class TestPlaces:
    def test_builder_chain(self):
        place = PVar("arr").view("group", 32).select("block").select("thread").idx(0)
        assert place_root_name(place) == "arr"
        assert place.select_vars() == ("block", "thread")
        assert str(place) == "arr.group::<32>[[block]][[thread]][0]"

    def test_proj_and_deref(self):
        place = PVar("x").deref().view("split", 16).fst
        assert place.contains_deref()
        assert "split" in str(place) and "fst" in str(place)

    def test_strip_derefs(self):
        place = PVar("x").deref().idx(1)
        stripped = strip_derefs(place)
        assert not stripped.contains_deref()
        assert str(stripped) == "x[1]"

    def test_view_ref_str(self):
        ref = ViewRef.of("map", view_args=(ViewRef.of("transpose"),))
        assert str(ref) == "map(transpose)"

    def test_parts_order(self):
        place = PVar("a").view("group", 4).idx(2)
        kinds = [type(p).__name__ for p in place.parts()]
        assert kinds == ["PVar", "PView", "PIdx"]
