"""Figure 8 — Reduce: relative runtime of Descend vs handwritten CUDA.

Regenerates the "Reduce" group of bars (small / medium / large footprints).
"""

import pytest

from figure8_utils import bench_sizes, run_figure8_cell


@pytest.mark.parametrize("size", bench_sizes())
def test_figure8_reduce(benchmark, size):
    run_figure8_cell(benchmark, "reduce", size)
