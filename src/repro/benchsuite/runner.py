"""Running one benchmark in both variants (handwritten CUDA-lite vs Descend).

For every workload the runner

1. generates the input data,
2. runs the handwritten CUDA-lite kernels on the simulator,
3. builds the equivalent Descend program, type checks it, and executes it on
   the same simulator (through the Descend interpreter),
4. checks every run (:func:`run_variant`): the result against a numpy
   reference, no data race, and every launch on the engine asked for,
5. reports the simulated kernel cycles of both variants (for scan: the sum of
   the two kernels, as the paper measures).

The paper reports the *median* of 100 runs; the simulator is deterministic,
so ``repeats`` defaults to 3 and the median is over identical values — the
parameter exists so the harness structure matches the paper's methodology.
"""

from __future__ import annotations

import statistics
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.benchsuite.workloads import Workload, workload
from repro.cudalite.kernels import histogram as cu_histogram
from repro.cudalite.kernels import matmul as cu_matmul
from repro.cudalite.kernels import reduce as cu_reduce
from repro.cudalite.kernels import scan as cu_scan
from repro.cudalite.kernels import stencil as cu_stencil
from repro.cudalite.kernels import transpose as cu_transpose
from repro.descend.api import compile_program
from repro.descend_programs import histogram as d_histogram
from repro.descend_programs import matmul as d_matmul
from repro.descend_programs import reduce as d_reduce
from repro.descend_programs import scan as d_scan
from repro.descend_programs import stencil as d_stencil
from repro.descend_programs import transpose as d_transpose
from repro.errors import BenchmarkError
from repro.gpusim import GpuDevice


@dataclass
class VariantRun:
    """Result of running one variant (CUDA-lite or Descend) of a workload.

    Only checked runs produce one: :func:`run_variant` raises on a wrong
    result, a data race or an engine fallback.
    """

    cycles: float
    wall_s: float
    kernel_cycles: List[float] = field(default_factory=list)
    stats: Dict[str, float] = field(default_factory=dict)


@dataclass
class BenchmarkRun:
    """Result of running both variants of one workload."""

    workload: Workload
    cuda: VariantRun
    descend: VariantRun

    @property
    def relative_runtime(self) -> float:
        """Descend time relative to CUDA (1.0 = identical, < 1.0 = Descend faster)."""
        if self.cuda.cycles == 0:
            return float("nan")
        return self.descend.cycles / self.cuda.cycles


def _rng(workload_: Workload) -> np.random.Generator:
    # A stable digest, not hash(): str hashes are salted per process
    # (PYTHONHASHSEED), which would draw different inputs in every run.
    return np.random.default_rng(zlib.crc32(workload_.label.encode("utf-8")))


# ---------------------------------------------------------------------------
# CUDA-lite variants
# ---------------------------------------------------------------------------


def _run_cuda_reduce(device: GpuDevice, params: Dict[str, int], data: np.ndarray) -> Tuple[float, np.ndarray, int, Dict]:
    n, block_size = params["n"], params["block_size"]
    num_blocks = n // block_size
    input_buf = device.to_device(data, label="input")
    output_buf = device.malloc((num_blocks,), dtype=np.float64, label="partials")
    launch = device.launch(
        cu_reduce.block_reduce_kernel, grid_dim=(num_blocks,), block_dim=(block_size,),
        args=(input_buf, output_buf), kernel_name="cuda_reduce",
    )
    return launch.cycles, device.to_host(output_buf), len(launch.races), launch.cost.summary()


def _run_cuda_transpose(device: GpuDevice, params: Dict[str, int], data: np.ndarray):
    n, tile, rows = params["n"], params["tile"], params["rows"]
    input_buf = device.to_device(data.reshape(-1), label="input")
    output_buf = device.malloc((n * n,), dtype=np.float64, label="output")
    launch = device.launch(
        cu_transpose.transpose_kernel,
        grid_dim=(n // tile, n // tile),
        block_dim=(tile, rows),
        args=(input_buf, output_buf, n, tile),
        kernel_name="cuda_transpose",
    )
    return launch.cycles, device.to_host(output_buf).reshape(n, n), len(launch.races), launch.cost.summary()


def _run_cuda_scan(device: GpuDevice, params: Dict[str, int], data: np.ndarray):
    n, block_size, per_thread = params["n"], params["block_size"], params["elems_per_thread"]
    chunk = block_size * per_thread
    num_blocks = n // chunk
    input_buf = device.to_device(data, label="input")
    output_buf = device.malloc((n,), dtype=np.float64, label="output")
    sums_buf = device.malloc((num_blocks,), dtype=np.float64, label="block_sums")
    first = device.launch(
        cu_scan.scan_block_kernel, grid_dim=(num_blocks,), block_dim=(block_size,),
        args=(input_buf, output_buf, sums_buf, per_thread), kernel_name="cuda_scan_blocks",
    )
    offsets = cu_scan.exclusive_scan_on_host(device.to_host(sums_buf))
    offsets_buf = device.to_device(offsets, label="offsets")
    second = device.launch(
        cu_scan.add_offsets_kernel, grid_dim=(num_blocks,), block_dim=(block_size,),
        args=(output_buf, offsets_buf, per_thread), kernel_name="cuda_add_offsets",
    )
    cycles = first.cycles + second.cycles
    races = len(first.races) + len(second.races)
    stats = {k: first.cost.summary()[k] + second.cost.summary()[k] for k in first.cost.summary()}
    return cycles, device.to_host(output_buf), races, stats


def _run_cuda_matmul(device: GpuDevice, params: Dict[str, int], data: Tuple[np.ndarray, np.ndarray]):
    m, k, n, tile = params["m"], params["k"], params["n"], params["tile"]
    a, b = data
    a_buf = device.to_device(a.reshape(-1), label="A")
    b_buf = device.to_device(b.reshape(-1), label="B")
    c_buf = device.malloc((m * n,), dtype=np.float64, label="C")
    launch = device.launch(
        cu_matmul.matmul_kernel,
        grid_dim=(n // tile, m // tile),
        block_dim=(tile, tile),
        args=(a_buf, b_buf, c_buf, m, k, n, tile),
        kernel_name="cuda_matmul",
    )
    return launch.cycles, device.to_host(c_buf).reshape(m, n), len(launch.races), launch.cost.summary()


def _run_cuda_histogram(device: GpuDevice, params: Dict[str, int], data: np.ndarray):
    n, bins, num_blocks = params["n"], params["bins"], params["num_blocks"]
    chunk = n // num_blocks
    keys_buf = device.to_device(data, label="keys")
    partials_buf = device.malloc((num_blocks * bins,), dtype=np.float64, label="partials")
    bins_buf = device.malloc((bins,), dtype=np.float64, label="bins_out")
    first = device.launch(
        cu_histogram.histogram_partials_kernel, grid_dim=(num_blocks,), block_dim=(bins,),
        args=(keys_buf, partials_buf, chunk), kernel_name="cuda_histogram_partials",
    )
    second = device.launch(
        cu_histogram.combine_bins_kernel, grid_dim=(1,), block_dim=(bins,),
        args=(partials_buf, bins_buf, num_blocks), kernel_name="cuda_combine_bins",
    )
    cycles = first.cycles + second.cycles
    races = len(first.races) + len(second.races)
    stats = {k: first.cost.summary()[k] + second.cost.summary()[k] for k in first.cost.summary()}
    return cycles, device.to_host(bins_buf), races, stats


def _run_cuda_stencil(device: GpuDevice, params: Dict[str, int], data: np.ndarray):
    n, block_size = params["n"], params["block_size"]
    input_buf = device.to_device(data, label="input")
    output_buf = device.malloc((n,), dtype=np.float64, label="output")
    launch = device.launch(
        cu_stencil.stencil3_kernel, grid_dim=(n // block_size,), block_dim=(block_size,),
        args=(input_buf, output_buf), kernel_name="cuda_stencil3",
    )
    return launch.cycles, device.to_host(output_buf), len(launch.races), launch.cost.summary()


# ---------------------------------------------------------------------------
# Descend variants
# ---------------------------------------------------------------------------


# Builders for the Descend variant of each workload.  The runners compile
# through the content-cached driver, so repeated runs of one workload
# (sweeps, repeats, both engines) type check and lower exactly once; see
# also `precompile_descend`, which warms the cache outside timed regions.
_DESCEND_BUILDERS = {
    "reduce": lambda p: d_reduce.build_reduce_program(n=p["n"], block_size=p["block_size"]),
    "transpose": lambda p: d_transpose.build_transpose_program(
        n=p["n"], tile=p["tile"], rows=p["rows"]
    ),
    "scan": lambda p: d_scan.build_scan_program(
        n=p["n"], block_size=p["block_size"], elems_per_thread=p["elems_per_thread"]
    ),
    "matmul": lambda p: d_matmul.build_matmul_program(
        m=p["m"], k=p["k"], n=p["n"], tile=p["tile"]
    ),
    "histogram": lambda p: d_histogram.build_histogram_program(
        n=p["n"], bins=p["bins"], num_blocks=p["num_blocks"]
    ),
    "stencil": lambda p: d_stencil.build_stencil_program(
        n=p["n"], block_size=p["block_size"]
    ),
}


def precompile_descend(benchmark: str, params: Dict[str, int]) -> None:
    """Warm the compile cache for one Descend workload, device plans included.

    Wall-clock benchmarks call this before their timed region so both
    engines measure pure execution: without it the first reference run
    would pay the cold typeck and the first vectorized run the cold plan
    lowering, which later runs then get from the cache.  When the active
    session carries a persistent artifact store (``--store`` / parallel
    sweeps), this is also where a worker process pulls the typecheck done
    by another worker instead of redoing it.
    """
    compiled = compile_program(_DESCEND_BUILDERS[benchmark](params))
    for fun_name in compiled.gpu_function_names():
        compiled.device_plan(fun_name)
        compiled.plan_source(fun_name)


def _run_descend_reduce(device: GpuDevice, params: Dict[str, int], data: np.ndarray):
    n, block_size = params["n"], params["block_size"]
    num_blocks = n // block_size
    compiled = compile_program(_DESCEND_BUILDERS["reduce"](params))
    input_buf = device.to_device(data, label="input")
    output_buf = device.malloc((num_blocks,), dtype=np.float64, label="partials")
    launch = compiled.kernel("block_reduce").launch(
        device, {"input": input_buf, "output": output_buf}
    )
    return launch.cycles, device.to_host(output_buf), len(launch.races), launch.cost.summary()


def _run_descend_transpose(device: GpuDevice, params: Dict[str, int], data: np.ndarray):
    n, tile, rows = params["n"], params["tile"], params["rows"]
    compiled = compile_program(_DESCEND_BUILDERS["transpose"](params))
    input_buf = device.to_device(data, label="input")
    output_buf = device.malloc((n, n), dtype=np.float64, label="output")
    launch = compiled.kernel("transpose").launch(
        device, {"input": input_buf, "output": output_buf}
    )
    return launch.cycles, device.to_host(output_buf), len(launch.races), launch.cost.summary()


def _run_descend_scan(device: GpuDevice, params: Dict[str, int], data: np.ndarray):
    n, block_size, per_thread = params["n"], params["block_size"], params["elems_per_thread"]
    chunk = block_size * per_thread
    num_blocks = n // chunk
    compiled = compile_program(_DESCEND_BUILDERS["scan"](params))
    input_buf = device.to_device(data, label="input")
    output_buf = device.malloc((n,), dtype=np.float64, label="output")
    sums_buf = device.malloc((num_blocks,), dtype=np.float64, label="block_sums")
    first = compiled.kernel("scan_blocks").launch(
        device, {"input": input_buf, "output": output_buf, "block_sums": sums_buf}
    )
    offsets = cu_scan.exclusive_scan_on_host(device.to_host(sums_buf))
    offsets_buf = device.to_device(offsets, label="offsets")
    second = compiled.kernel("add_offsets").launch(
        device, {"output": output_buf, "offsets": offsets_buf}
    )
    cycles = first.cycles + second.cycles
    races = len(first.races) + len(second.races)
    stats = {k: first.cost.summary()[k] + second.cost.summary()[k] for k in first.cost.summary()}
    return cycles, device.to_host(output_buf), races, stats


def _run_descend_matmul(device: GpuDevice, params: Dict[str, int], data: Tuple[np.ndarray, np.ndarray]):
    m, k, n, tile = params["m"], params["k"], params["n"], params["tile"]
    a, b = data
    compiled = compile_program(_DESCEND_BUILDERS["matmul"](params))
    a_buf = device.to_device(a, label="A")
    b_buf = device.to_device(b, label="B")
    c_buf = device.malloc((m, n), dtype=np.float64, label="C")
    launch = compiled.kernel("matmul").launch(
        device, {"a": a_buf, "b": b_buf, "c": c_buf}
    )
    return launch.cycles, device.to_host(c_buf), len(launch.races), launch.cost.summary()


def _run_descend_histogram(device: GpuDevice, params: Dict[str, int], data: np.ndarray):
    n, bins, num_blocks = params["n"], params["bins"], params["num_blocks"]
    compiled = compile_program(_DESCEND_BUILDERS["histogram"](params))
    keys_buf = device.to_device(data, label="keys")
    bin_ids_buf = device.to_device(np.arange(bins, dtype=np.float64), label="bin_ids")
    partials_buf = device.malloc((num_blocks * bins,), dtype=np.float64, label="partials")
    bins_buf = device.malloc((bins,), dtype=np.float64, label="bins_out")
    first = compiled.kernel("histogram_partials").launch(
        device, {"keys": keys_buf, "bin_ids": bin_ids_buf, "partials": partials_buf}
    )
    second = compiled.kernel("combine_bins").launch(
        device, {"partials": partials_buf, "bins_out": bins_buf}
    )
    cycles = first.cycles + second.cycles
    races = len(first.races) + len(second.races)
    stats = {k: first.cost.summary()[k] + second.cost.summary()[k] for k in first.cost.summary()}
    return cycles, device.to_host(bins_buf), races, stats


def _run_descend_stencil(device: GpuDevice, params: Dict[str, int], data: np.ndarray):
    n = params["n"]
    compiled = compile_program(_DESCEND_BUILDERS["stencil"](params))
    input_buf = device.to_device(data, label="inp")
    output_buf = device.malloc((n,), dtype=np.float64, label="out")
    launch = compiled.kernel("stencil3").launch(
        device, {"inp": input_buf, "out": output_buf}
    )
    return launch.cycles, device.to_host(output_buf), len(launch.races), launch.cost.summary()


# ---------------------------------------------------------------------------
# Putting both sides together
# ---------------------------------------------------------------------------


def _reference_and_data(workload_: Workload):
    """Input data plus the numpy reference result for correctness checking."""
    rng = _rng(workload_)
    params = workload_.params
    name = workload_.benchmark
    if name == "reduce":
        data = rng.random(params["n"])
        reference = data.reshape(-1, params["block_size"]).sum(axis=1)
        return data, reference
    if name == "transpose":
        data = rng.random((params["n"], params["n"]))
        return data, data.T
    if name == "scan":
        data = rng.random(params["n"])
        return data, np.cumsum(data)
    if name == "matmul":
        a = rng.random((params["m"], params["k"]))
        b = rng.random((params["k"], params["n"]))
        return (a, b), a @ b
    if name == "histogram":
        keys = rng.integers(0, params["bins"], params["n"]).astype(np.float64)
        reference = np.bincount(keys.astype(np.int64), minlength=params["bins"]).astype(np.float64)
        return keys, reference
    if name == "stencil":
        data = rng.random(params["n"] + 2)
        return data, (data[:-2] + data[1:-1] + data[2:]) / 3.0
    raise BenchmarkError(f"unknown benchmark {name!r}")


_CUDA_RUNNERS = {
    "reduce": _run_cuda_reduce,
    "transpose": _run_cuda_transpose,
    "scan": _run_cuda_scan,
    "matmul": _run_cuda_matmul,
    "histogram": _run_cuda_histogram,
    "stencil": _run_cuda_stencil,
}

_DESCEND_RUNNERS = {
    "reduce": _run_descend_reduce,
    "transpose": _run_descend_transpose,
    "scan": _run_descend_scan,
    "matmul": _run_descend_matmul,
    "histogram": _run_descend_histogram,
    "stencil": _run_descend_stencil,
}


def run_variant(
    variant: str, workload_: Workload, data, reference, engine: str, repeats: int = 1
) -> VariantRun:
    """Run one variant (``"cudalite"`` or ``"descend"``) of a workload on one engine.

    Every repeat runs on a fresh device and is checked: a wrong result, a
    data race, or a launch that ran on another engine raises
    :class:`BenchmarkError`.  A Descend launch silently falling back to the
    reference interpreter would fake both Figure 8's engine choice and the
    engine benchmark's speedup.  ``wall_s`` is the best-of-``repeats``
    wall-clock of the runner call alone.
    """
    runner = (_DESCEND_RUNNERS if variant == "descend" else _CUDA_RUNNERS)[workload_.benchmark]
    where = f"{variant} {workload_.label} under the {engine} engine"
    cycles_per_run: List[float] = []
    best_wall = float("inf")
    stats: Dict[str, float] = {}
    for _ in range(max(1, repeats)):
        device = GpuDevice(execution_mode=engine)
        start = time.perf_counter()
        cycles, result, races, stats = runner(device, workload_.params, data)
        best_wall = min(best_wall, time.perf_counter() - start)
        if races:
            raise BenchmarkError(f"{where} reported {races} data races")
        if not np.allclose(result, reference):
            raise BenchmarkError(f"{where} produced a wrong result")
        for launch in device.launch_log:
            if launch.execution_mode != engine:
                raise BenchmarkError(
                    f"{where}: launch `{launch.kernel_name}` ran on the "
                    f"{launch.execution_mode} engine"
                )
        cycles_per_run.append(cycles)
    return VariantRun(
        cycles=statistics.median(cycles_per_run),
        wall_s=best_wall,
        kernel_cycles=cycles_per_run,
        stats=stats,
    )


def run_benchmark_pair(
    benchmark: str,
    size: str,
    repeats: int = 1,
    engine: str = "reference",
    scale: Optional[int] = None,
) -> BenchmarkRun:
    """Run one Figure 8 cell: the CUDA-lite and Descend variants of one workload.

    ``engine`` selects the execution engine for *both* sides.  On the
    lockstep engines (``"vectorized"`` and ``"jit"``, one runner under two
    names) the CUDA-lite kernels run as written, and the Descend programs
    run the generated source of the device-plan compiler
    (:mod:`repro.descend.plan`).  Because every engine produces
    identical cycle counts, the Figure 8 ratios are engine-independent —
    the lockstep engines just regenerate them much faster.  ``scale``
    enlarges the workload footprint.
    """
    workload_ = workload(benchmark, size, scale=scale)
    data, reference = _reference_and_data(workload_)
    cuda = run_variant("cudalite", workload_, data, reference, engine, repeats)
    descend = run_variant("descend", workload_, data, reference, engine, repeats)
    return BenchmarkRun(workload=workload_, cuda=cuda, descend=descend)
