"""The type checker accepts the paper's (safe) programs."""

from repro.descend.builder import *
from repro.descend.typeck import check_program
from repro.descend_programs import matmul, reduce, scan, transpose, vector


class TestBenchmarkProgramsTypeCheck:
    def test_scale_program(self):
        checked = check_program(vector.build_scale_program(n=256, block_size=32))
        assert "scale_vec" in checked.fn_types
        assert "host_scale" in checked.fn_types

    def test_saxpy_program(self):
        check_program(vector.build_saxpy_program(n=128, block_size=32))

    def test_transpose_program(self):
        check_program(transpose.build_transpose_program(n=64, tile=16, rows=4))

    def test_transpose_other_geometry(self):
        check_program(transpose.build_transpose_program(n=32, tile=8, rows=2))

    def test_reduce_program(self):
        check_program(reduce.build_reduce_program(n=1024, block_size=64))

    def test_reduce_small_blocks(self):
        check_program(reduce.build_reduce_program(n=64, block_size=8))

    def test_scan_program(self):
        check_program(scan.build_scan_program(n=512, block_size=16, elems_per_thread=4))

    def test_matmul_program(self):
        check_program(matmul.build_matmul_program(m=16, k=16, n=16, tile=8))

    def test_matmul_rectangular(self):
        check_program(matmul.build_matmul_program(m=16, k=32, n=8, tile=8))


class TestElementaryPrograms:
    def _grid(self):
        return gpu_grid_spec("grid", dim_x(4), dim_x(8))

    def test_read_only_access_needs_no_narrowing(self):
        prog = program(
            fun(
                "reader",
                [
                    param("input", shared_ref(GPU_GLOBAL, array(F64, 32))),
                    param("output", uniq_ref(GPU_GLOBAL, array(F64, 32))),
                ],
                self._grid(),
                body(
                    sched(
                        "X", "block", "grid",
                        sched(
                            "X", "thread", "block",
                            # every thread reads element 0 (shared read is fine)
                            assign(
                                var("output").view("group", 8).select("block").select("thread"),
                                read(var("input").idx(0)),
                            ),
                        ),
                    )
                ),
            )
        )
        check_program(prog)

    def test_scalar_locals_and_loops(self):
        prog = program(
            fun(
                "acc",
                [param("output", uniq_ref(GPU_GLOBAL, array(F64, 32)))],
                self._grid(),
                body(
                    sched(
                        "X", "block", "grid",
                        sched(
                            "X", "thread", "block",
                            let("total", lit_f64(0.0)),
                            for_nat("i", 0, 4, assign(var("total"), add(read(var("total")), lit_f64(1.0)))),
                            assign(
                                var("output").view("group", 8).select("block").select("thread"),
                                read(var("total")),
                            ),
                        ),
                    )
                ),
            )
        )
        check_program(prog)

    def test_if_statement(self):
        prog = program(
            fun(
                "cond",
                [param("output", uniq_ref(GPU_GLOBAL, array(F64, 32)))],
                self._grid(),
                body(
                    sched(
                        "X", "block", "grid",
                        sched(
                            "X", "thread", "block",
                            if_(
                                lt(lit_f64(1.0), lit_f64(2.0)),
                                block(
                                    assign(
                                        var("output").view("group", 8).select("block").select("thread"),
                                        lit_f64(1.0),
                                    )
                                ),
                            ),
                        ),
                    )
                ),
            )
        )
        check_program(prog)

    def test_block_level_split_with_singleton_branch(self):
        prog = program(
            fun(
                "single_writer",
                [param("out", uniq_ref(GPU_GLOBAL, array(F64, 4)))],
                self._grid(),
                body(
                    sched(
                        "X", "block", "grid",
                        split_exec(
                            "X", "block", 1,
                            ("first", block(sched("X", "t", "first", assign(var("out").select("block"), lit_f64(1.0))))),
                            ("rest", block()),
                        ),
                    )
                ),
            )
        )
        check_program(prog)

    def test_cpu_host_pipeline(self):
        prog = vector.build_scale_program(n=128, block_size=32)
        checked = check_program(prog)
        assert checked.fun("host_scale").exec_spec.level.describe() == "cpu.thread"

    def test_same_place_read_then_written_by_same_threads(self):
        elem = var("data").view("group", 8).select("block").select("thread")
        prog = program(
            fun(
                "rmw",
                [param("data", uniq_ref(GPU_GLOBAL, array(F64, 32)))],
                self._grid(),
                body(
                    sched(
                        "X", "block", "grid",
                        sched("X", "thread", "block", assign(elem, add(read(elem), lit_f64(1.0)))),
                    )
                ),
            )
        )
        check_program(prog)
