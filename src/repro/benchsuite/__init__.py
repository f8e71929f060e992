"""The evaluation harness: regenerates Figure 8 and the ablations of DESIGN.md.

* :mod:`repro.benchsuite.workloads` — benchmark/size definitions (small,
  medium, large — scaled-down versions of the paper's 256 MB / 512 MB / 1 GB
  footprints, enlarged by ``scale`` / the ``--scale``/``--scales`` CLI flags),
* :mod:`repro.benchsuite.runner` — runs one benchmark in its CUDA-lite
  (handwritten) and Descend (generated) variants and verifies both results,
* :mod:`repro.benchsuite.figure8` — the Figure 8 table: relative median
  runtimes of CUDA vs Descend per benchmark and size, plus the mean,
* :mod:`repro.benchsuite.report` — text tables and the one ``BENCH_*.json``
  writer every ``descendc bench``/``figure8`` run reports through,
* :mod:`repro.benchsuite.ablation` — additional studies (coalescing, type
  checking cost),
* :mod:`repro.benchsuite.enginebench` — reference vs vectorized engine
  comparison: cycle-count parity plus wall-clock speedup (``BENCH_*.json``).
"""

from repro.benchsuite.enginebench import EngineBenchResult, compare_engines, run_engine_bench
from repro.benchsuite.runner import BenchmarkRun, run_benchmark_pair
from repro.benchsuite.workloads import BENCHMARKS, SIZES, Workload, workload

__all__ = [
    "BenchmarkRun",
    "EngineBenchResult",
    "compare_engines",
    "run_benchmark_pair",
    "run_engine_bench",
    "Workload",
    "workload",
    "BENCHMARKS",
    "SIZES",
]
