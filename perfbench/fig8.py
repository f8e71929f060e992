"""The fig8 workload: Figure 8 programs as Descend and as CUDA-lite kernels.

Each cell (program, footprint scale) runs three ways per pass: the Descend
program on the ``jit`` and on the ``vectorized`` engine, and the
hand-written CUDA-lite kernel on ``vectorized``.  Scale 1 is dominated by
per-launch overhead, scale 8 (matmul: 4) by per-thread work.  Compile,
plan and codegen plus one warm-up pass happen in set-up, so the timed
passes measure engine execution, cost accounting and race checking only.

Every launch is checked: outputs ``allclose`` to the numpy reference,
simulated cycles equal on every engine and equal to the reference-engine
values recorded in ``fig8_cycles.json``, zero races and no fallback on the
Descend side.  ``python3 perfbench/fig8.py --record`` re-records the cycles
with the reference engine.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict

import numpy as np

from perfbench.common import SETUP_REPEATS, Context, HostSpeed, Result, median, op_metrics, self_peak_rss_mb
from perfbench.inputs import fig8_inputs, fig8_params
from perfbench.metrics import FIG8_CELLS, cell_name

CYCLES_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fig8_cycles.json")

#: Wrappers the traced run must see fire on this workload.
DECLARED = (
    "typeck.check", "plan.lower", "plan.optimize", "plan.codegen", "driver.record",
    "interp.launch", "gpusim.launch", "gpusim.run.vectorized", "gpusim.run.jit",
    "gpusim.cost.stock", "gpusim.cost.jit", "gpusim.races",
)

#: Measured seconds of one pass over every cell on a 2-core machine; the run
#: makes ``seconds / PASS_S`` passes (at least 2), a fixed count per length
#: so counts repeat exactly between runs of one seed.
PASS_S = 4.0

#: Host-speed samples after each cell (about 4 ms against 400 ms of cell runs).
SAMPLES_PER_CELL = 2


# ---------------------------------------------------------------------------
# One cell, both sides
# ---------------------------------------------------------------------------


def _launch(compiled, name, device, args, engine, notes):
    kernel = compiled.kernel(name)
    launch = kernel.launch(device, args, execution_mode=engine)
    if kernel.fallback_reason is not None:
        notes.append(f"{name} fell back: {kernel.fallback_reason}")
    if launch.races:
        notes.append(f"{name} reported {len(launch.races)} race(s)")
    return launch.cycles


def run_descend(program: str, compiled, params: Dict[str, int], data, engine: str):
    """Run one Descend cell; returns (output, cycles, notes)."""
    from repro.cudalite.kernels import scan as cu_scan
    from repro.gpusim import GpuDevice

    device = GpuDevice(execution_mode=engine)
    notes: list = []
    if program == "reduce":
        inp = device.to_device(data, label="input")
        out = device.malloc((params["n"] // params["block_size"],), label="partials")
        cycles = _launch(compiled, "block_reduce", device, {"input": inp, "output": out}, engine, notes)
    elif program == "transpose":
        inp = device.to_device(data, label="input")
        out = device.malloc((params["n"], params["n"]), label="output")
        cycles = _launch(compiled, "transpose", device, {"input": inp, "output": out}, engine, notes)
    elif program == "scan":
        num_blocks = params["n"] // (params["block_size"] * params["elems_per_thread"])
        inp = device.to_device(data, label="input")
        out = device.malloc((params["n"],), label="output")
        sums = device.malloc((num_blocks,), label="block_sums")
        cycles = _launch(
            compiled, "scan_blocks", device, {"input": inp, "output": out, "block_sums": sums}, engine, notes
        )
        offsets = device.to_device(cu_scan.exclusive_scan_on_host(device.to_host(sums)), label="offsets")
        cycles += _launch(compiled, "add_offsets", device, {"output": out, "offsets": offsets}, engine, notes)
    elif program == "matmul":
        a, b = data
        a_buf, b_buf = device.to_device(a, label="A"), device.to_device(b, label="B")
        out = device.malloc((params["m"], params["n"]), label="C")
        cycles = _launch(compiled, "matmul", device, {"a": a_buf, "b": b_buf, "c": out}, engine, notes)
    elif program == "histogram":
        bins, num_blocks = params["bins"], params["num_blocks"]
        keys = device.to_device(data, label="keys")
        bin_ids = device.to_device(np.arange(bins, dtype=np.float64), label="bin_ids")
        partials = device.malloc((num_blocks * bins,), label="partials")
        out = device.malloc((bins,), label="bins_out")
        cycles = _launch(
            compiled, "histogram_partials", device,
            {"keys": keys, "bin_ids": bin_ids, "partials": partials}, engine, notes,
        )
        cycles += _launch(compiled, "combine_bins", device, {"partials": partials, "bins_out": out}, engine, notes)
    elif program == "stencil":
        inp = device.to_device(data, label="inp")
        out = device.malloc((params["n"],), label="out")
        cycles = _launch(compiled, "stencil3", device, {"inp": inp, "out": out}, engine, notes)
    else:
        raise ValueError(program)
    return device.to_host(out), cycles, notes


def run_cudalite(program: str, params: Dict[str, int], data, engine: str):
    """Run one hand-written CUDA-lite cell; returns (output, cycles)."""
    from repro.benchsuite.runner import _CUDA_RUNNERS
    from repro.gpusim import GpuDevice

    cycles, output, _, _ = _CUDA_RUNNERS[program](GpuDevice(execution_mode=engine), params, data)
    return output, cycles


def compile_cells(cells, label: str):
    """Compile, plan and codegen every cell's Descend program on one fresh
    memory-only session (what a host program does before its first launch)."""
    from repro.benchsuite.runner import _DESCEND_BUILDERS
    from repro.descend.api import LocalBackend

    driver = LocalBackend(label=label).driver
    compiled = {}
    for program, scale in cells:
        unit = driver.compile_program(_DESCEND_BUILDERS[program](fig8_params(program, scale)))
        for fun in unit.gpu_function_names():
            unit.device_plan(fun)
            unit.plan_source(fun)
        compiled[(program, scale)] = unit
    return compiled


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------


def _check(result: Result, label: str, output, reference, cycles, expected, notes) -> None:
    result.attempted += 1
    problems = list(notes)
    if not np.allclose(output, reference):
        problems.append("output differs from the numpy reference")
    if expected is None:
        problems.append("no recorded reference-engine cycles")
    elif cycles != expected:
        problems.append(f"cycles {cycles!r} != recorded {expected!r}")
    if problems:
        result.fail(f"{label}: " + "; ".join(problems))


def _pass(result: Result, compiled, inputs, recorded, per_cell: Dict[str, list], speed: HostSpeed) -> Dict[str, float]:
    totals = {"jit": 0.0, "vectorized": 0.0, "cudalite": 0.0}
    for program, scale in FIG8_CELLS:
        cell = cell_name(program, scale)
        params = fig8_params(program, scale)
        data, reference = inputs[(program, scale)]
        expected = recorded.get(cell, {})
        for engine in ("jit", "vectorized"):
            start = time.perf_counter()
            output, cycles, notes = run_descend(program, compiled[(program, scale)], params, data, engine)
            elapsed = time.perf_counter() - start
            totals[engine] += elapsed
            per_cell[f"fig8.{cell}.{engine}_ms"].append(elapsed * 1e3)
            _check(result, f"{cell} descend/{engine}", output, reference, cycles, expected.get("descend"), notes)
        start = time.perf_counter()
        output, cycles = run_cudalite(program, params, data, "vectorized")
        elapsed = time.perf_counter() - start
        totals["cudalite"] += elapsed
        per_cell[f"fig8.{cell}.cudalite_ms"].append(elapsed * 1e3)
        _check(result, f"{cell} cudalite", output, reference, cycles, expected.get("cudalite"), [])
        speed.sample(SAMPLES_PER_CELL)
    return totals


def run(ctx: Context, started: float) -> Result:
    result = Result()
    import repro.cudalite.kernels  # noqa: F401  (imports count towards set-up)
    import repro.descend.api  # noqa: F401
    import repro.descend_programs  # noqa: F401

    imports_s = time.perf_counter() - started
    setups = []
    for _ in range(SETUP_REPEATS):
        begin = time.perf_counter()
        compiled = compile_cells(FIG8_CELLS, "fig8")
        setups.append(time.perf_counter() - begin)
    with open(CYCLES_FILE, "r", encoding="utf-8") as handle:
        recorded = json.load(handle)
    inputs = fig8_inputs(ctx.seed, FIG8_CELLS)
    warmup = _pass(result, compiled, inputs, recorded, {key: [] for key in _cell_keys()}, HostSpeed("numpy"))

    per_cell = {key: [] for key in _cell_keys()}
    passes = {"jit": [], "vectorized": [], "cudalite": []}
    speed = HostSpeed("numpy")
    for _ in range(max(2, round(ctx.seconds / PASS_S))):
        totals = _pass(result, compiled, inputs, recorded, per_cell, speed)
        for side, seconds in totals.items():
            passes[side].append(seconds)
    setup_s = imports_s + median(setups) + sum(warmup.values())
    op_metrics(result, setup_s, [sum(sides) for sides in zip(*passes.values())], speed)
    result.metrics["peak_rss_mb"] = self_peak_rss_mb()
    for side, seconds in passes.items():
        result.layer[f"fig8.{side}_s"] = median(seconds) * speed.scale()
    result.layer.update({key: median(values) for key, values in per_cell.items()})
    return result


def _cell_keys():
    for program, scale in FIG8_CELLS:
        cell = cell_name(program, scale)
        yield f"fig8.{cell}.jit_ms"
        yield f"fig8.{cell}.vectorized_ms"
        yield f"fig8.{cell}.cudalite_ms"


def record_cycles() -> Dict[str, Dict[str, float]]:
    """Simulated cycles of every cell on the reference engine.

    Cycles are data-independent, so any inputs do; seed 0 is used.
    """
    compiled = compile_cells(FIG8_CELLS, "record")
    inputs = fig8_inputs(0, FIG8_CELLS)
    recorded = {}
    for program, scale in FIG8_CELLS:
        params = fig8_params(program, scale)
        data, reference = inputs[(program, scale)]
        descend_out, descend_cycles, notes = run_descend(program, compiled[(program, scale)], params, data, "reference")
        cuda_out, cuda_cycles = run_cudalite(program, params, data, "reference")
        if notes or not (np.allclose(descend_out, reference) and np.allclose(cuda_out, reference)):
            raise SystemExit(f"reference engine disagrees on {program} x{scale}: {notes}")
        recorded[cell_name(program, scale)] = {"descend": descend_cycles, "cudalite": cuda_cycles}
        print(f"{cell_name(program, scale)}: {recorded[cell_name(program, scale)]}", flush=True)
    return recorded


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: PYTHONPATH=src:. python3 perfbench/fig8.py --record")
    cycles = record_cycles()
    with open(CYCLES_FILE, "w", encoding="utf-8") as handle:
        json.dump(cycles, handle, indent=1, sort_keys=True)
        handle.write("\n")
