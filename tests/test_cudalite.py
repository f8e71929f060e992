"""Tests for the handwritten CUDA-lite baseline kernels."""

import numpy as np
import pytest

from repro.cudalite.kernels import buggy, matmul, reduce, scan, transpose, vector


class TestVectorKernels:
    def test_scale(self, device, rng):
        data = rng.random(128)
        buf = device.to_device(data)
        device.launch(vector.scale_vec_kernel, grid_dim=(4,), block_dim=(32,), args=(buf, 2.0))
        assert np.allclose(device.to_host(buf), data * 2.0)

    def test_init(self, device):
        buf = device.malloc((64,), dtype=np.float64)
        device.launch(vector.init_kernel, grid_dim=(2,), block_dim=(32,), args=(buf, 7.0))
        assert np.all(device.to_host(buf) == 7.0)

    def test_vec_add(self, device, rng):
        a, b = rng.random(64), rng.random(64)
        da, db = device.to_device(a), device.to_device(b)
        out = device.malloc((64,), dtype=np.float64)
        device.launch(vector.vec_add_kernel, grid_dim=(2,), block_dim=(32,), args=(out, da, db))
        assert np.allclose(device.to_host(out), a + b)

    def test_saxpy(self, device, rng):
        x, y = rng.random(64), rng.random(64)
        dx, dy = device.to_device(x), device.to_device(y)
        device.launch(vector.saxpy_kernel, grid_dim=(2,), block_dim=(32,), args=(dy, dx, 0.5))
        assert np.allclose(device.to_host(dy), 0.5 * x + y)


class TestReduce:
    @pytest.mark.parametrize("block_size", [8, 32, 64])
    def test_block_reduce(self, device, rng, block_size):
        n = block_size * 8
        data = rng.random(n)
        input_buf = device.to_device(data)
        output_buf = device.malloc((8,), dtype=np.float64)
        launch = device.launch(
            reduce.block_reduce_kernel, grid_dim=(8,), block_dim=(block_size,),
            args=(input_buf, output_buf),
        )
        assert np.allclose(device.to_host(output_buf), data.reshape(8, block_size).sum(axis=1))
        assert not launch.races
        assert reduce.final_reduce_on_host(device.to_host(output_buf)) == pytest.approx(data.sum())


class TestTranspose:
    @pytest.mark.parametrize("n,tile,rows", [(32, 16, 4), (64, 16, 8), (32, 8, 2)])
    def test_tiled_transpose(self, device, rng, n, tile, rows):
        data = rng.random((n, n))
        input_buf = device.to_device(data.reshape(-1))
        output_buf = device.malloc((n * n,), dtype=np.float64)
        launch = device.launch(
            transpose.transpose_kernel, grid_dim=(n // tile, n // tile), block_dim=(tile, rows),
            args=(input_buf, output_buf, n, tile),
        )
        assert np.allclose(device.to_host(output_buf).reshape(n, n), data.T)
        assert not launch.races

    def test_naive_transpose_correct_but_uncoalesced(self, device, rng):
        n, tile, rows = 32, 16, 4
        data = rng.random((n, n))
        input_buf = device.to_device(data.reshape(-1))
        output_buf = device.malloc((n * n,), dtype=np.float64)
        naive = device.launch(
            transpose.naive_transpose_kernel, grid_dim=(n // tile, n // tile), block_dim=(tile, rows),
            args=(input_buf, output_buf, n, tile),
        )
        assert np.allclose(device.to_host(output_buf).reshape(n, n), data.T)
        tiled = device.launch(
            transpose.transpose_kernel, grid_dim=(n // tile, n // tile), block_dim=(tile, rows),
            args=(input_buf, output_buf, n, tile),
        )
        assert naive.cost.global_transactions > tiled.cost.global_transactions

    def test_buggy_transpose_races(self, device, rng):
        n, tile, rows = 32, 16, 4
        data = rng.random((n, n))
        input_buf = device.to_device(data.reshape(-1))
        output_buf = device.malloc((n * n,), dtype=np.float64)
        launch = device.launch(
            buggy.buggy_transpose_kernel, grid_dim=(n // tile, n // tile), block_dim=(tile, rows),
            args=(input_buf, output_buf, n, tile),
        )
        assert launch.races, "the Listing 1 bug must be detected as a data race"


class TestScan:
    def test_two_kernel_scan(self, device, rng):
        n, block_size, per_thread = 1024, 16, 4
        chunk = block_size * per_thread
        blocks = n // chunk
        data = rng.random(n)
        input_buf = device.to_device(data)
        output_buf = device.malloc((n,), dtype=np.float64)
        sums_buf = device.malloc((blocks,), dtype=np.float64)
        first = device.launch(
            scan.scan_block_kernel, grid_dim=(blocks,), block_dim=(block_size,),
            args=(input_buf, output_buf, sums_buf, per_thread),
        )
        offsets = scan.exclusive_scan_on_host(device.to_host(sums_buf))
        offsets_buf = device.to_device(offsets)
        second = device.launch(
            scan.add_offsets_kernel, grid_dim=(blocks,), block_dim=(block_size,),
            args=(output_buf, offsets_buf, per_thread),
        )
        assert np.allclose(device.to_host(output_buf), np.cumsum(data))
        assert not first.races and not second.races

    def test_exclusive_scan_on_host(self):
        sums = np.array([1.0, 2.0, 3.0])
        assert np.allclose(scan.exclusive_scan_on_host(sums), [0.0, 1.0, 3.0])


class TestMatmul:
    @pytest.mark.parametrize("m,k,n,tile", [(16, 16, 16, 8), (16, 32, 8, 8), (8, 8, 8, 4)])
    def test_tiled_matmul(self, device, rng, m, k, n, tile):
        a = rng.random((m, k))
        b = rng.random((k, n))
        a_buf = device.to_device(a.reshape(-1))
        b_buf = device.to_device(b.reshape(-1))
        c_buf = device.malloc((m * n,), dtype=np.float64)
        launch = device.launch(
            matmul.matmul_kernel, grid_dim=(n // tile, m // tile), block_dim=(tile, tile),
            args=(a_buf, b_buf, c_buf, m, k, n, tile),
        )
        assert np.allclose(device.to_host(c_buf).reshape(m, n), a @ b)
        assert not launch.races
