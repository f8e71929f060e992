"""Seeded inputs: every program and array a run uses derives from ``--seed``.

Program text comes from :func:`repro.fuzz.generate.spec_for_case` (seeded
by a stable string, so identical under any ``PYTHONHASHSEED``) and from the
printed sources of the six Figure 8 / histogram / stencil programs; arrays
come from ``np.random.default_rng(seed)``.  Nothing here calls
``benchsuite.runner._reference_and_data``, whose ``hash(label)`` seeding gives
each process different data.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterator, List, NamedTuple, Tuple

import numpy as np

#: Disjoint fuzz-index ranges per use, so no two roles share a program.
COMPILE_BASE = 0
CLI_PREFILL_BASE = 1_000_000
CLI_TIMED_BASE = 2_000_000
SERVE_HOT_BASE = 3_000_000
SERVE_NOVEL_BASE = 4_000_000

#: Share of the compile stream taken from the paper programs (the rest are
#: fuzz cases, about a quarter of them mutants).
PAPER_SHARE = 0.125


class Program(NamedTuple):
    name: str
    text: str
    mutant: bool


def fuzz_program(seed: int, index: int) -> Program:
    from repro.descend.ast.printer import print_program
    from repro.fuzz.generate import build_program, spec_for_case

    spec = spec_for_case(seed, index)
    return Program(f"fuzz-{seed}-{index}.descend", print_program(build_program(spec)), bool(spec.mutation))


def iter_fuzz_programs(seed: int, base: int, well_typed: bool = False) -> Iterator[Program]:
    """Distinct fuzz programs from index ``base`` on (mutants skipped if
    ``well_typed``)."""
    seen, index = set(), base
    while True:
        program = fuzz_program(seed, index)
        index += 1
        if (well_typed and program.mutant) or program.text in seen:
            continue
        seen.add(program.text)
        yield program


def fuzz_programs(seed: int, base: int, count: int, well_typed: bool = False) -> List[Program]:
    return list(itertools.islice(iter_fuzz_programs(seed, base, well_typed), count))


def compile_stream(seed: int, count: int) -> Iterator[Program]:
    """The compile workload's stream: ``count`` distinct programs.

    About one in eight is the printed source of a paper program at a seeded
    footprint; the rest are fuzz cases (a quarter of them mutants).
    """
    from repro.benchsuite.runner import _DESCEND_BUILDERS
    from repro.benchsuite.workloads import workload
    from repro.descend.ast.printer import print_program

    from perfbench.metrics import FIG8_PROGRAMS

    rng = random.Random(f"perfbench:compile:{seed}")
    combos = [
        (benchmark, size, scale)
        for benchmark in FIG8_PROGRAMS
        for size in ("small", "medium", "large")
        for scale in range(1, 17)
    ]
    rng.shuffle(combos)
    seen = set()
    produced, fuzz_index = 0, COMPILE_BASE
    while produced < count:
        if combos and rng.random() < PAPER_SHARE:
            benchmark, size, scale = combos.pop()
            params = workload(benchmark, size, scale=scale).params
            text = print_program(_DESCEND_BUILDERS[benchmark](params))
            program = Program(f"{benchmark}-{size}-x{scale}.descend", text, False)
        else:
            program = fuzz_program(seed, fuzz_index)
            fuzz_index += 1
        if program.text in seen:
            continue
        seen.add(program.text)
        produced += 1
        yield program


# ---------------------------------------------------------------------------
# Figure 8 arrays and their numpy references
# ---------------------------------------------------------------------------


def fig8_params(program: str, scale: int) -> Dict[str, int]:
    from repro.benchsuite.workloads import workload

    return workload(program, "small", scale=scale).params


def fig8_data(program: str, params: Dict[str, int], rng: np.random.Generator) -> Tuple[object, np.ndarray]:
    """Seeded inputs of one cell plus the numpy reference of its output."""
    if program == "reduce":
        data = rng.random(params["n"])
        return data, data.reshape(-1, params["block_size"]).sum(axis=1)
    if program == "transpose":
        data = rng.random((params["n"], params["n"]))
        return data, data.T.copy()
    if program == "scan":
        data = rng.random(params["n"])
        return data, np.cumsum(data)
    if program == "matmul":
        a = rng.random((params["m"], params["k"]))
        b = rng.random((params["k"], params["n"]))
        return (a, b), a @ b
    if program == "histogram":
        keys = rng.integers(0, params["bins"], params["n"]).astype(np.float64)
        reference = np.bincount(keys.astype(np.int64), minlength=params["bins"]).astype(np.float64)
        return keys, reference
    if program == "stencil":
        data = rng.random(params["n"] + 2)
        return data, (data[:-2] + data[1:-1] + data[2:]) / 3.0
    raise ValueError(f"unknown benchmark {program!r}")


def fig8_inputs(seed: int, cells) -> Dict[Tuple[str, int], Tuple[object, np.ndarray]]:
    rng = np.random.default_rng(seed)
    return {
        (program, scale): fig8_data(program, fig8_params(program, scale), rng)
        for program, scale in cells
    }
