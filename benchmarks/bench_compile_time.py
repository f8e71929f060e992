"""Ablation A1 — the cost of Descend's static safety (type-checking time).

The paper's claim is that safety costs nothing at runtime; this benchmark
measures where the cost actually goes: the extended borrow checking performed
at compile time, per benchmark program.
"""

import pytest

from repro.benchsuite.compilebench import PROGRAMS
from repro.descend.ast.printer import print_program
from repro.descend.driver import CompilerDriver, CompileSession
from repro.descend.nat import NatVar, as_nat, clear_nat_caches, evaluate_nat, normalize
from repro.descend.typeck import check_program, clear_typeck_caches


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_typecheck_time(benchmark, name):
    program = PROGRAMS[name]()
    checked = benchmark(check_program, program)
    assert checked.fn_types


def test_typecheck_cold(benchmark):
    """Typechecking with every memoization layer (nat, overlap, exec) dropped."""
    program = PROGRAMS["matmul"]()

    def run():
        clear_nat_caches()
        clear_typeck_caches()
        return check_program(program)

    assert benchmark(run).fn_types


def test_driver_cold_compile(benchmark):
    """Full cold pipeline (parse + typeck) through the staged driver."""
    text = print_program(PROGRAMS["matmul"]())

    def run():
        clear_nat_caches()
        clear_typeck_caches()
        return CompilerDriver(CompileSession()).compile_source(text, name="matmul.descend")

    assert benchmark(run).checked.fn_types


def test_driver_cached_compile(benchmark):
    """The same compile hitting the session's content-addressed cache."""
    text = print_program(PROGRAMS["matmul"]())
    driver = CompilerDriver(CompileSession())
    first = driver.compile_source(text, name="matmul.descend")
    result = benchmark(driver.compile_source, text, "matmul.descend")
    assert result is first


# The reduction stride family `block_size / 2^(k+1)` is the hottest nat in
# the repo: the reference interpreter evaluates it per thread per statement,
# and the type checker normalises it for every reduction step.
_STRIDES = [as_nat(64) / (as_nat(2) ** (NatVar("k") + 1)) for _ in range(4)]


def _normalize_sweep():
    for stride in _STRIDES:
        for offset in range(6):
            normalize(stride + offset)


def _evaluate_sweep():
    total = 0
    for stride in _STRIDES:
        for k in range(6):
            total += evaluate_nat(stride, {"k": k})
    return total


def test_nat_normalize_memoized(benchmark):
    """Warm-cache normalisation of the reduce-stride expression family."""
    clear_nat_caches()
    _normalize_sweep()  # populate the cache once
    benchmark(_normalize_sweep)


def test_nat_normalize_cold(benchmark):
    """Cold-cache baseline: every round pays the full polynomial rebuild."""

    def run():
        clear_nat_caches()
        _normalize_sweep()

    benchmark(run)


def test_nat_evaluate_memoized(benchmark):
    """Warm-cache evaluation (what the interpreter's hot loop hits)."""
    clear_nat_caches()
    assert _evaluate_sweep() == 4 * sum(64 // 2 ** (k + 1) for k in range(6))
    result = benchmark(_evaluate_sweep)
    assert result == 4 * sum(64 // 2 ** (k + 1) for k in range(6))


def test_nat_evaluate_cold(benchmark):
    """Cold-cache baseline for the same evaluation sweep."""

    def run():
        clear_nat_caches()
        return _evaluate_sweep()

    benchmark(run)
