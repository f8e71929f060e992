"""Figure 8 — MM (tiled matrix multiplication)."""

import pytest

from figure8_utils import bench_sizes, run_figure8_cell


@pytest.mark.parametrize("size", bench_sizes())
def test_figure8_matmul(benchmark, size):
    run_figure8_cell(benchmark, "matmul", size)
