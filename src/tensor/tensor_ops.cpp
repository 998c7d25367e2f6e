#include "tensor/tensor_ops.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace mw {
namespace {

constexpr std::size_t kParallelRowThreshold = 16;

void gemm_bt_rows(const float* a, const float* bt, float* c, std::size_t row_begin,
                  std::size_t row_end, std::size_t k, std::size_t n) {
    for (std::size_t i = row_begin; i < row_end; ++i) {
        const float* a_row = a + i * k;
        float* c_row = c + i * n;
        for (std::size_t j = 0; j < n; ++j) {
            const float* b_row = bt + j * k;
            float acc = 0.0F;
            for (std::size_t kk = 0; kk < k; ++kk) acc += a_row[kk] * b_row[kk];
            c_row[j] = acc;
        }
    }
}

}  // namespace

void gemm_accumulate(const float* a, const float* b, float* c, std::size_t m, std::size_t k,
                     std::size_t n) {
    // i-k-j loop order: the innermost loop streams both B and C rows, which
    // vectorises cleanly.
    for (std::size_t i = 0; i < m; ++i) {
        float* c_row = c + i * n;
        const float* a_row = a + i * k;
        for (std::size_t kk = 0; kk < k; ++kk) {
            const float a_ik = a_row[kk];
            if (a_ik == 0.0F) continue;
            const float* b_row = b + kk * n;
            for (std::size_t j = 0; j < n; ++j) c_row[j] += a_ik * b_row[j];
        }
    }
}

void gemm(const Tensor& a, const Tensor& b, Tensor& c, ThreadPool* pool) {
    MW_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2 && c.shape().rank() == 2,
             "gemm requires rank-2 tensors");
    const std::size_t m = a.shape()[0];
    const std::size_t k = a.shape()[1];
    const std::size_t n = b.shape()[1];
    MW_CHECK(b.shape()[0] == k, "gemm inner dimension mismatch");
    MW_CHECK(c.shape()[0] == m && c.shape()[1] == n, "gemm output shape mismatch");

    c.fill(0.0F);
    if (pool && m >= kParallelRowThreshold) {
        pool->parallel_for(0, m, [&](std::size_t i) {
            gemm_accumulate(a.data() + i * k, b.data(), c.data() + i * n, 1, k, n);
        }, std::max<std::size_t>(1, m / (pool->size() * 4)));
    } else {
        gemm_accumulate(a.data(), b.data(), c.data(), m, k, n);
    }
}

void gemm_bt(const Tensor& a, const Tensor& bt, Tensor& c, ThreadPool* pool) {
    MW_CHECK(a.shape().rank() == 2 && bt.shape().rank() == 2 && c.shape().rank() == 2,
             "gemm_bt requires rank-2 tensors");
    const std::size_t m = a.shape()[0];
    const std::size_t k = a.shape()[1];
    const std::size_t n = bt.shape()[0];
    MW_CHECK(bt.shape()[1] == k, "gemm_bt inner dimension mismatch");
    MW_CHECK(c.shape()[0] == m && c.shape()[1] == n, "gemm_bt output shape mismatch");

    if (pool && m >= kParallelRowThreshold) {
        pool->parallel_for(0, m, [&](std::size_t i) {
            gemm_bt_rows(a.data(), bt.data(), c.data(), i, i + 1, k, n);
        }, std::max<std::size_t>(1, m / (pool->size() * 4)));
    } else {
        gemm_bt_rows(a.data(), bt.data(), c.data(), 0, m, k, n);
    }
}

void add_bias_rows(Tensor& y, const Tensor& bias) {
    MW_CHECK(y.shape().rank() == 2, "add_bias_rows requires rank-2 activations");
    const std::size_t m = y.shape()[0];
    const std::size_t n = y.shape()[1];
    MW_CHECK(bias.numel() == n, "bias width mismatch");
    for (std::size_t i = 0; i < m; ++i) {
        float* row = y.data() + i * n;
        const float* b = bias.data();
        for (std::size_t j = 0; j < n; ++j) row[j] += b[j];
    }
}

void scale_inplace(Tensor& t, float scale) {
    for (auto& x : t.span()) x *= scale;
}

void add_inplace(Tensor& out, const Tensor& a) {
    MW_CHECK(out.shape() == a.shape(), "add_inplace shape mismatch");
    const float* src = a.data();
    float* dst = out.data();
    for (std::size_t i = 0; i < out.numel(); ++i) dst[i] += src[i];
}

double dot(const Tensor& a, const Tensor& b) {
    MW_CHECK(a.shape() == b.shape(), "dot shape mismatch");
    double acc = 0.0;
    const float* pa = a.data();
    const float* pb = b.data();
    for (std::size_t i = 0; i < a.numel(); ++i) acc += static_cast<double>(pa[i]) * pb[i];
    return acc;
}

}  // namespace mw
