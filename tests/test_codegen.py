"""Tests for CUDA C++ code generation."""

import pytest

from repro.descend.codegen import generate_cuda
from repro.descend.codegen.index_expr import cconst, csym, nat_to_cexpr
from repro.descend.nat import NatBinOp, NatConst, NatVar, as_nat
from repro.descend_programs import matmul, reduce, scan, transpose, vector
from repro.errors import DescendCodegenError


class TestIndexExpressions:
    def test_constant_folding(self):
        assert (cconst(2) + 3).render() == "5"
        assert (cconst(4) * cconst(8)).render() == "32"

    def test_identity_simplifications(self):
        x = csym("x")
        assert (x + 0).render() == "x"
        assert (x * 1).render() == "x"
        assert (x * 0).render() == "0"
        assert (cconst(0) + x).render() == "x"

    def test_precedence_parentheses(self):
        x, y = csym("x"), csym("y")
        expr = (x + y) * 2
        assert expr.render() == "(x + y) * 2"

    def test_nat_lowering_with_bindings(self):
        expr = nat_to_cexpr(as_nat("n") * 4, {"n": 8})
        assert expr.render() == "32"

    def test_nat_lowering_symbolic(self):
        expr = nat_to_cexpr(as_nat("n") + 1)
        assert expr.render() == "n + 1"

    def test_power_of_two_becomes_shift(self):
        expr = nat_to_cexpr(NatBinOp("^", NatConst(2), NatVar("k")))
        assert "<<" in expr.render()

    def test_constant_power(self):
        assert nat_to_cexpr(NatBinOp("^", NatConst(2), NatConst(5))).render() == "32"

    def test_unsupported_power_base(self):
        with pytest.raises(DescendCodegenError):
            nat_to_cexpr(NatBinOp("^", NatVar("b"), NatVar("k")))


class TestKernelGeneration:
    def test_scale_kernel(self):
        module = generate_cuda(vector.build_scale_program(n=256, block_size=32))
        kernel = module.kernel("scale_vec")
        assert "__global__ void scale_vec(double *vec)" in kernel
        assert "blockIdx.x * 32 + threadIdx.x" in kernel
        assert "* 3.0" in kernel

    def test_transpose_kernel_structure(self):
        module = generate_cuda(transpose.build_transpose_program(n=64, tile=16, rows=4))
        kernel = module.kernel("transpose")
        assert "__shared__ double tmp[256];" in kernel
        assert "__syncthreads();" in kernel
        assert "const double *input" in kernel
        assert "double *output" in kernel
        # the staged tile is read transposed (the Listing 1 access pattern)
        assert "tmp[threadIdx.x * 16 + threadIdx.y" in kernel

    def test_reduce_kernel_structure(self):
        module = generate_cuda(reduce.build_reduce_program(n=1024, block_size=64))
        kernel = module.kernel("block_reduce")
        assert "__shared__ double tmp[64];" in kernel
        assert "if (threadIdx.x < 64 / (1 << k + 1))" in kernel
        assert kernel.count("__syncthreads();") >= 2

    def test_scan_kernels(self):
        module = generate_cuda(scan.build_scan_program(n=1024, block_size=16, elems_per_thread=4))
        assert "scan_blocks" in module.kernels and "add_offsets" in module.kernels
        assert "for (int j = 0; j < 4; ++j)" in module.kernel("scan_blocks")

    def test_matmul_kernel_structure(self):
        module = generate_cuda(matmul.build_matmul_program(m=16, k=16, n=16, tile=8))
        kernel = module.kernel("matmul")
        assert "__shared__ double a_tile[64];" in kernel
        assert "__shared__ double b_tile[64];" in kernel
        assert "blockIdx.y" in kernel and "blockIdx.x" in kernel

    def test_full_source_contains_header_and_all_kernels(self):
        module = generate_cuda(scan.build_scan_program(n=512, block_size=16, elems_per_thread=4))
        source = module.full_source()
        assert "#include <cuda_runtime.h>" in source
        assert source.count("__global__") == 2


class TestHostGeneration:
    def test_host_scale_pipeline(self):
        module = generate_cuda(vector.build_scale_program(n=256, block_size=32))
        host = module.host("host_scale")
        assert "cudaMalloc(&d_vec, 256 * sizeof(double));" in host
        assert "cudaMemcpyHostToDevice" in host
        assert "scale_vec<<<dim3(8, 1, 1), dim3(32, 1, 1)>>>(d_vec);" in host
        assert "cudaMemcpyDeviceToHost" in host
        assert "cudaDeviceSynchronize();" in host

    def test_generated_module_lists_host_and_gpu_functions(self):
        module = generate_cuda(vector.build_scale_program(n=128, block_size=32))
        assert set(module.kernels) == {"scale_vec"}
        assert set(module.host_functions) == {"host_scale"}
