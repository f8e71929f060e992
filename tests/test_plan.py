"""Tests for the device-plan IR subsystem (lower → optimize → codegen).

Covers the tentpole guarantees of `repro.descend.plan`:

* the lowering emits *pure data* — frozen dataclass ops over a slot table,
  no embedded callables — so plans pickle and round-trip exactly;
* the optimization passes (fold-nats, fuse-arith, dead-slots) change the
  op program but never the observable execution (cycles, buffers);
* the disassembler is deterministic, and the checked-in golden IR dumps of
  the Figure 8 programs make IR changes reviewable diffs
  (regenerate with ``REPRO_REGEN_GOLDEN=1``).
"""

import dataclasses
import os
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.benchsuite.compilebench import PROGRAMS
from repro.descend.builder import (
    F64,
    GPU_GLOBAL,
    add,
    array,
    assign,
    block,
    body,
    dim_x,
    fun,
    gpu_grid_spec,
    if_,
    let,
    lit_f64,
    lt,
    mul,
    param,
    program,
    read,
    sched,
    uniq_ref,
    var,
)
from repro.descend.interp import DescendKernel
from repro.descend.nat import NatConst
from repro.descend.plan import (
    DevicePlan,
    PlanUnsupported,
    compile_device_plan,
    disassemble,
    generate_plan_source,
    lower_device_plan,
    optimize_plan,
)
from repro.descend.plan.ir import ConstOp, FusedArithOp
from repro.descend.plan.lower import MAX_NESTING
from repro.descend_programs import vector
from repro.gpusim import GpuDevice

GOLDEN_DIR = Path(__file__).parent / "golden" / "plan"


def _walk_values(value, seen=None):
    """Yield every nested value of a plan's dataclass/tuple tree."""
    if seen is None:
        seen = set()
    if id(value) in seen:
        return
    seen.add(id(value))
    yield value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        for field in dataclasses.fields(value):
            yield from _walk_values(getattr(value, field.name), seen)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _walk_values(item, seen)
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _walk_values(key, seen)
            yield from _walk_values(item, seen)


def _walk_ops(ops):
    from repro.descend.plan.optimize import _op_bodies

    for op in ops:
        yield op
        for body_ops in _op_bodies(op):
            yield from _walk_ops(body_ops)


def _doubler_with_nat_expr():
    """A kernel whose view argument is a *closed* nat expression (8*4)."""
    group = NatConst(8) * NatConst(4)
    elem = var("vec").view("group", group).select("block").select("thread")
    kernel = fun(
        "doubler",
        [param("vec", uniq_ref(GPU_GLOBAL, array(F64, 64)))],
        gpu_grid_spec("grid", dim_x(2), dim_x(32)),
        body(
            sched(
                "X",
                "block",
                "grid",
                sched("X", "thread", "block", assign(elem, mul(read(elem), lit_f64(2.0)))),
            )
        ),
    )
    return program(kernel)


class TestLowering:
    def test_plan_is_pure_data(self):
        plan = lower_device_plan(
            vector.build_scale_program(n=64, block_size=32).fun("scale_vec")
        )
        for value in _walk_values(plan):
            assert not callable(value), f"callable {value!r} embedded in the plan IR"

    def test_params_occupy_leading_slots(self):
        plan = lower_device_plan(
            vector.build_saxpy_program(n=64, block_size=32).fun("saxpy")
        )
        assert plan.params == ("y", "x", "alpha")
        assert plan.slot_names[: len(plan.params)] == plan.params

    def test_unsupported_constructs_raise(self):
        from repro.descend_programs import unsafe

        with pytest.raises(PlanUnsupported):
            lower_device_plan(unsafe.build_barrier_in_split().fun("kernel"))

    def test_non_gpu_function_rejected(self):
        with pytest.raises(PlanUnsupported):
            lower_device_plan(
                vector.build_scale_program(n=64, block_size=32).fun("host_scale")
            )


class TestSerialization:
    def test_pickle_round_trip_is_exact(self):
        plan = compile_device_plan(
            vector.build_scale_program(n=64, block_size=32).fun("scale_vec")
        )
        clone = pickle.loads(pickle.dumps(plan, protocol=4))
        assert clone == plan
        assert disassemble(clone) == disassemble(plan)

    def test_unpickled_plan_executes_with_reference_parity(self):
        prog = vector.build_scale_program(n=128, block_size=32)
        plan = compile_device_plan(prog.fun("scale_vec"))
        clone = pickle.loads(pickle.dumps(plan, protocol=4))
        assert isinstance(clone, DevicePlan)
        data = np.arange(128, dtype=np.float64)

        ref_device = GpuDevice(execution_mode="reference")
        ref_buf = ref_device.to_device(data)
        ref_launch = DescendKernel(prog, "scale_vec").launch(ref_device, {"vec": ref_buf})

        vec_device = GpuDevice(execution_mode="vectorized")
        vec_buf = vec_device.to_device(data)
        kernel = DescendKernel(prog, "scale_vec")
        # Inject the deserialized plan's source, as a warm store would.
        kernel._plan_source_entry = (generate_plan_source(clone), None)
        vec_launch = kernel.launch(vec_device, {"vec": vec_buf})

        assert vec_launch.execution_mode == "vectorized"
        assert vec_launch.cycles == ref_launch.cycles
        assert np.array_equal(vec_device.to_host(vec_buf), ref_device.to_host(ref_buf))


class TestOptimizePasses:
    def test_fold_nats_resolves_closed_bounds(self):
        plan = lower_device_plan(_doubler_with_nat_expr().fun("doubler"))
        assert "group::<(8 * 4)>" in disassemble(plan)
        optimized, detail = optimize_plan(plan)
        # Two folds: the read and the store each carry the view's nat arg.
        assert "fold-nats:2" in detail
        assert "group::<32>" in disassemble(optimized)

    def test_dead_slots_removes_unused_pure_ops(self):
        elem = var("vec").view("group", 32).select("block").select("thread")
        kernel = fun(
            "with_dead_let",
            [param("vec", uniq_ref(GPU_GLOBAL, array(F64, 64)))],
            gpu_grid_spec("grid", dim_x(2), dim_x(32)),
            body(
                sched(
                    "X",
                    "block",
                    "grid",
                    sched(
                        "X",
                        "thread",
                        "block",
                        let("unused", lit_f64(7.0)),
                        assign(elem, mul(read(elem), lit_f64(2.0))),
                    ),
                )
            ),
        )
        plan = lower_device_plan(program(kernel).fun("with_dead_let"))
        assert any(
            isinstance(op, ConstOp) and op.value == 7.0 for op in _walk_ops(plan.body)
        )
        optimized, detail = optimize_plan(plan)
        assert not any(
            isinstance(op, ConstOp) and op.value == 7.0 for op in _walk_ops(optimized.body)
        )
        assert optimized.n_slots < plan.n_slots

    def test_fuse_arith_fuses_matmul_inner_product(self):
        from repro.descend_programs.matmul import build_matmul_program

        plan = lower_device_plan(
            build_matmul_program(m=16, k=16, n=16, tile=8).fun("matmul")
        )
        optimized, detail = optimize_plan(plan)
        assert any(isinstance(op, FusedArithOp) for op in _walk_ops(optimized.body))
        assert "fuse-arith:1" in detail

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_optimized_plans_preserve_execution(self, name):
        """Raw vs optimized IR: identical cycles, barriers, and buffers."""
        prog = PROGRAMS[name]()
        for fun_def in prog.gpu_functions():
            raw = lower_device_plan(fun_def)
            optimized, _detail = optimize_plan(raw)
            results = []
            for plan in (raw, optimized):
                device = GpuDevice(execution_mode="vectorized")
                args = {}
                for p in fun_def.params:
                    shape = _param_shape(p)
                    args[p.name] = (
                        device.to_device(np.linspace(1.0, 2.0, int(np.prod(shape))).reshape(shape))
                        if shape
                        else 1.5
                    )
                kernel = DescendKernel(prog, fun_def.name)
                kernel._plan_source_entry = (generate_plan_source(plan), None)
                launch = kernel.launch(device, args)
                buffers = {
                    p.name: device.to_host(args[p.name]).copy()
                    for p in fun_def.params
                    if not isinstance(args[p.name], float)
                }
                results.append((launch.cycles, launch.barriers, buffers))
            assert results[0][0] == results[1][0], fun_def.name
            assert results[0][1] == results[1][1], fun_def.name
            for key in results[0][2]:
                assert np.array_equal(results[0][2][key], results[1][2][key]), key

    def test_optimizing_twice_is_stable(self):
        plan = compile_device_plan(
            vector.build_scale_program(n=64, block_size=32).fun("scale_vec")
        )
        again, detail = optimize_plan(plan)
        assert again == plan
        assert "fuse-arith:0" in detail and "dead-slots:0" in detail


def _param_shape(p):
    """Concrete array shape of a kernel parameter (empty tuple = scalar)."""
    from repro.descend.ast.types import ArrayType, RefType

    ty = p.ty
    if isinstance(ty, RefType):
        ty = ty.referent
    shape = []
    while isinstance(ty, ArrayType):
        shape.append(int(ty.size.evaluate({})))
        ty = ty.elem
    return tuple(shape)


class TestDisassembler:
    def test_disassembly_is_deterministic(self):
        build = lambda: compile_device_plan(  # noqa: E731
            vector.build_scale_program(n=64, block_size=32).fun("scale_vec")
        )
        assert disassemble(build()) == disassemble(build())

    def test_fallback_functions_have_no_plan(self):
        from repro.descend_programs import unsafe

        with pytest.raises(PlanUnsupported, match="sync"):
            compile_device_plan(unsafe.build_barrier_in_split().fun("kernel"))


class TestGoldenIR:
    """Checked-in IR dumps of the Figure 8 programs: reviewable diffs.

    Regenerate after an intentional IR change with::

        REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_plan.py
    """

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_figure8_ir_matches_golden(self, name):
        prog = PROGRAMS[name]()
        dump = "\n".join(
            disassemble(compile_device_plan(fun_def)) for fun_def in prog.gpu_functions()
        )
        path = GOLDEN_DIR / f"{name}.ir"
        if os.environ.get("REPRO_REGEN_GOLDEN") == "1":
            GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
            path.write_text(dump)
            pytest.skip(f"regenerated {path}")
        assert path.exists(), (
            f"missing golden IR dump {path}; generate it with "
            f"REPRO_REGEN_GOLDEN=1 python -m pytest {__file__}"
        )
        assert dump == path.read_text(), (
            f"IR changed for {name}; review the diff and regenerate with "
            f"REPRO_REGEN_GOLDEN=1 python -m pytest {__file__}"
        )


class TestGoldenJitSource:
    """Checked-in generated-Python dumps of the Figure 8 programs.

    The `lower.plan.codegen` pass is a source-to-source compiler, so its
    output is reviewable exactly like the IR dumps above.  Regenerate after
    an intentional codegen change with::

        REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_plan.py
    """

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_figure8_jit_source_matches_golden(self, name):
        prog = PROGRAMS[name]()
        dump = "\n".join(
            generate_plan_source(compile_device_plan(fun_def)).source
            for fun_def in prog.gpu_functions()
        )
        path = GOLDEN_DIR / f"{name}.py"
        if os.environ.get("REPRO_REGEN_GOLDEN") == "1":
            GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
            path.write_text(dump)
            pytest.skip(f"regenerated {path}")
        assert path.exists(), (
            f"missing golden jit source dump {path}; generate it with "
            f"REPRO_REGEN_GOLDEN=1 python -m pytest {__file__}"
        )
        assert dump == path.read_text(), (
            f"generated source changed for {name}; review the diff and regenerate "
            f"with REPRO_REGEN_GOLDEN=1 python -m pytest {__file__}"
        )


class TestEngineDifferential:
    """reference vs vectorized vs jit: byte-identical observable behaviour.

    The vectorized and jit engines both run the plan's generated
    straight-line source, so cycles, barriers, races, and output buffers
    must all match the tree-walking reference interpreter exactly — not
    approximately.
    """

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_figure8_engines_agree(self, name):
        prog = PROGRAMS[name]()
        for fun_def in prog.gpu_functions():
            results = {}
            for engine in ("reference", "vectorized", "jit"):
                device = GpuDevice(execution_mode=engine)
                args = {}
                for p in fun_def.params:
                    shape = _param_shape(p)
                    args[p.name] = (
                        device.to_device(
                            np.linspace(1.0, 2.0, int(np.prod(shape))).reshape(shape)
                        )
                        if shape
                        else 1.5
                    )
                kernel = DescendKernel(prog, fun_def.name)
                launch = kernel.launch(device, args)
                assert launch.execution_mode == engine, (
                    f"{fun_def.name} fell back from {engine}: {kernel.fallback_reason}"
                )
                buffers = {
                    p.name: device.to_host(args[p.name]).copy()
                    for p in fun_def.params
                    if not isinstance(args[p.name], float)
                }
                results[engine] = (launch.cycles, launch.barriers, launch.races, buffers)
            ref = results["reference"]
            for engine in ("vectorized", "jit"):
                got = results[engine]
                assert got[0] == ref[0], f"{fun_def.name}: {engine} cycles diverged"
                assert got[1] == ref[1], f"{fun_def.name}: {engine} barriers diverged"
                assert got[2] == ref[2], f"{fun_def.name}: {engine} races diverged"
                for key in ref[3]:
                    assert np.array_equal(got[3][key], ref[3][key]), (
                        f"{fun_def.name}: {engine} buffer {key} diverged"
                    )

    def test_jit_reports_races_identically(self):
        from repro.descend_programs import unsafe

        def _normalized(report):
            # buffer_id is a device-global counter, so it differs between the
            # two device instances; everything else must be byte-identical.
            return tuple(
                (a.offset, a.block, a.thread, a.epoch, a.is_write, a.buffer_label)
                for a in (report.first, report.second)
            )

        # Small enough that every racy location fits under the report cap;
        # otherwise the engines keep different truncated subsets.
        prog = unsafe.build_rev_per_block_race(n=8, block_size=8)
        results = {}
        for engine in ("reference", "vectorized", "jit"):
            device = GpuDevice(execution_mode=engine)
            fun_def = next(iter(prog.gpu_functions()))
            args = {}
            for p in fun_def.params:
                shape = _param_shape(p)
                args[p.name] = (
                    device.to_device(np.zeros(shape)) if shape else 1.0
                )
            kernel = DescendKernel(prog, fun_def.name)
            launch = kernel.launch(device, args, detect_races=True)
            assert launch.execution_mode == engine, kernel.fallback_reason
            results[engine] = [_normalized(r) for r in launch.races]
        assert results["jit"], "expected the racy program to race"
        # The jit detector replays the same batched analysis as the stock
        # detector the vectorized engine uses: identical reports in
        # identical order.
        assert results["jit"] == results["vectorized"]
        # The reference engine records accesses one lane at a time, so its
        # report order may differ, but the set of racing pairs must agree.
        assert sorted(results["jit"]) == sorted(results["reference"])


def _nested_ifs_program(depth: int):
    """A kernel with ``depth`` nested divergent ``if``s inside two scheds.

    Each level tests ``elem + 0.5 < bound`` (shrinking bounds, so every
    level splits the active lanes) and scales ``elem`` in its else arm.
    Both arms lower to fresh op tuples, like any program's, and every level
    adds the same 8 plan slots.
    """
    elem = var("vec").view("group", 32).select("block").select("thread")

    def level(k):
        if k == depth:
            return block(assign(elem, add(read(elem), lit_f64(100.0))))
        return block(
            if_(
                lt(add(read(elem), lit_f64(0.5)), lit_f64(60.0 - 4 * k)),
                level(k + 1),
                block(assign(elem, mul(read(elem), lit_f64(k + 2.0)))),
            )
        )

    kernel = fun(
        "nested_ifs",
        [param("vec", uniq_ref(GPU_GLOBAL, array(F64, 64)))],
        gpu_grid_spec("grid", dim_x(2), dim_x(32)),
        body(sched("X", "block", "grid", sched("X", "thread", "block", level(0)))),
    )
    return program(kernel)


class TestNestedDivergence:
    def test_nested_ifs_source_is_linear_and_matches_reference(self):
        """Each ``if`` arm is emitted once: source grows by a constant per level."""
        lines = []
        for depth in range(13):
            prog = _nested_ifs_program(depth)
            source = generate_plan_source(compile_device_plan(prog.fun("nested_ifs"))).source
            lines.append(source.count("\n"))
            results = {}
            for engine in ("reference", "vectorized", "jit"):
                device = GpuDevice(execution_mode=engine)
                buf = device.to_device(np.arange(64, dtype=np.float64))
                kernel = DescendKernel(prog, "nested_ifs")
                launch = kernel.launch(device, {"vec": buf}, detect_races=True)
                assert launch.execution_mode == engine, kernel.fallback_reason
                results[engine] = (
                    launch.cycles,
                    launch.barriers,
                    [(r.first, r.second) for r in launch.races],
                    device.to_host(buf).tolist(),
                )
            assert results["vectorized"] == results["reference"], depth
            assert results["jit"] == results["reference"], depth
        growth = {after - before for before, after in zip(lines, lines[1:])}
        assert len(growth) == 1, lines

    def test_plan_past_the_nesting_bound_runs_reference(self):
        # Two scheds plus MAX_NESTING - 1 ifs: one level past the bound.
        prog = _nested_ifs_program(MAX_NESTING - 1)
        with pytest.raises(PlanUnsupported, match="nest deeper"):
            lower_device_plan(prog.fun("nested_ifs"))
        ref_device = GpuDevice(execution_mode="reference")
        ref_buf = ref_device.to_device(np.arange(64, dtype=np.float64))
        ref_launch = DescendKernel(prog, "nested_ifs").launch(ref_device, {"vec": ref_buf})
        for engine in ("vectorized", "jit"):
            device = GpuDevice(execution_mode=engine)
            buf = device.to_device(np.arange(64, dtype=np.float64))
            kernel = DescendKernel(prog, "nested_ifs")
            launch = kernel.launch(device, {"vec": buf})
            assert launch.execution_mode == "reference"
            assert "nest deeper" in kernel.fallback_reason
            assert launch.cycles == ref_launch.cycles
            assert np.array_equal(device.to_host(buf), ref_device.to_host(ref_buf))
