// Dense linear algebra kernels used by the inference engine.
#pragma once

#include <cstddef>

#include "common/thread_pool.hpp"
#include "tensor/tensor.hpp"

namespace mw {

/// C = A(m x k) * B(k x n): zero C, then gemm_accumulate. Rows of C are
/// distributed across `pool` when it is non-null and m is large enough to
/// amortise.
void gemm(const Tensor& a, const Tensor& b, Tensor& c, ThreadPool* pool = nullptr);

/// C(m x n) += A(m x k) * B(k x n) over row-major buffers; the one A*B row
/// kernel behind gemm() and Conv2d::forward. Each output adds its k products
/// in ascending k onto what C already holds, and a zero a(i, k) skips its
/// row of B, so seeding C (zeros for gemm, the bias for a convolution) fixes
/// the summation order and the result bit for bit.
void gemm_accumulate(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
                     std::size_t n);

/// C = A(m x k) * B^T where Bt is stored (n x k). This matches the dense
/// layer layout (weights stored one row per output node) and keeps both
/// operands streaming row-major — the access pattern §IV-B of the paper
/// settles on for CPU SIMD friendliness.
void gemm_bt(const Tensor& a, const Tensor& bt, Tensor& c, ThreadPool* pool = nullptr);

/// y(m x n) += bias(n), broadcast over rows.
void add_bias_rows(Tensor& y, const Tensor& bias);

/// Elementwise: out = out * scale.
void scale_inplace(Tensor& t, float scale);

/// out += a (same shape).
void add_inplace(Tensor& out, const Tensor& a);

/// Frobenius dot product of two same-shaped tensors.
double dot(const Tensor& a, const Tensor& b);

}  // namespace mw
