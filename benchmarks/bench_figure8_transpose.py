"""Figure 8 — Transpose: relative runtime of Descend vs handwritten CUDA."""

import pytest

from figure8_utils import bench_sizes, run_figure8_cell


@pytest.mark.parametrize("size", bench_sizes())
def test_figure8_transpose(benchmark, size):
    run_figure8_cell(benchmark, "transpose", size)
