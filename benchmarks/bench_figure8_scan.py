"""Figure 8 — Scan (two kernels, timed from first start to second end)."""

import pytest

from figure8_utils import bench_sizes, run_figure8_cell


@pytest.mark.parametrize("size", bench_sizes())
def test_figure8_scan(benchmark, size):
    run_figure8_cell(benchmark, "scan", size)
