// Unit tests for shapes, tensors and the linear-algebra kernels.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "tensor/shape.hpp"
#include "tensor/tensor.hpp"
#include "tensor/tensor_ops.hpp"

namespace {

using namespace mw;

TEST(Shape, BasicProperties) {
    const Shape s{2, 3, 4, 5};
    EXPECT_EQ(s.rank(), 4U);
    EXPECT_EQ(s.numel(), 120U);
    EXPECT_EQ(s.stride(3), 1U);
    EXPECT_EQ(s.stride(2), 5U);
    EXPECT_EQ(s.stride(0), 60U);
    EXPECT_EQ(s.str(), "(2, 3, 4, 5)");
}

TEST(Shape, Equality) {
    EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
    EXPECT_FALSE(Shape({2, 3}) == Shape({3, 2}));
    EXPECT_FALSE(Shape({2, 3}) == Shape({2, 3, 1}));
}

TEST(Shape, WithBatch) {
    const Shape s{8, 3, 32, 32};
    const Shape t = s.with_batch(64);
    EXPECT_EQ(t[0], 64U);
    EXPECT_EQ(t[1], 3U);
}

TEST(Shape, RejectsBadDims) {
    EXPECT_THROW(Shape({0, 3}), InvalidArgument);
    EXPECT_THROW(Shape({1, 2, 3, 4, 5}), InvalidArgument);
    EXPECT_THROW((void)Shape({2})[5], InvalidArgument);
}

TEST(Tensor, ZeroInitialised) {
    Tensor t(Shape{4, 4});
    for (const float x : t.span()) EXPECT_EQ(x, 0.0F);
}

TEST(Tensor, DeepCopySemantics) {
    Tensor a(Shape{2, 2});
    a.at(0, 0) = 1.0F;
    Tensor b = a;
    b.at(0, 0) = 2.0F;
    EXPECT_EQ(a.at(0, 0), 1.0F);
    EXPECT_EQ(b.at(0, 0), 2.0F);
    a = b;
    EXPECT_EQ(a.at(0, 0), 2.0F);
}

TEST(Tensor, AlignedStorage) {
    Tensor t(Shape{31});
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(t.data()) % kSimdAlignBytes, 0U);
}

TEST(Tensor, RowAccess) {
    Tensor t(Shape{3, 4});
    t.at(1, 2) = 7.0F;
    EXPECT_EQ(t.row(1)[2], 7.0F);
    EXPECT_THROW((void)t.row(3), InvalidArgument);
}

TEST(Tensor, BoundsChecking) {
    Tensor t(Shape{2, 2});
    EXPECT_THROW(t.at(4), InvalidArgument);
    EXPECT_THROW(t.at(2, 0), InvalidArgument);
}

TEST(Tensor, FillAndDiff) {
    Tensor a(Shape{8});
    Tensor b(Shape{8});
    a.fill(1.0F);
    b.fill(1.5F);
    EXPECT_NEAR(a.max_abs_diff(b), 0.5F, 1e-6F);
}

TEST(Tensor, RandomFillsAreDeterministic) {
    Rng r1(42);
    Rng r2(42);
    Tensor a(Shape{64});
    Tensor b(Shape{64});
    a.fill_normal(r1, 0.0F, 1.0F);
    b.fill_normal(r2, 0.0F, 1.0F);
    EXPECT_EQ(a.max_abs_diff(b), 0.0F);
}

/// Fills an n-element tensor from Rng(seed) and compares it, bit for bit,
/// with the serial `normal(mean, stddev)` draws of a copied generator, then
/// compares both generators' next raw draw. Returns "" on a match; gtest
/// assertions stay on the test thread.
std::string fill_normal_mismatch(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    Rng serial = rng;
    Tensor t(Shape{n});
    t.fill_normal(rng, 0.25F, 1.5F);
    std::vector<float> expected(n);
    for (auto& x : expected) x = static_cast<float>(serial.normal(0.25F, 1.5F));
    if (std::memcmp(t.data(), expected.data(), n * sizeof(float)) != 0) {
        return "values differ at n=" + std::to_string(n);
    }
    if (rng() != serial()) return "generator position differs at n=" + std::to_string(n);
    return "";
}

TEST(Tensor, FillNormalIsBitwiseEqualToSerialDraws) {
    constexpr std::size_t kBlock = Tensor::kFillNormalBlock;
    const std::vector<std::size_t> sizes{2 * kBlock - 1, 2 * kBlock, 2 * kBlock + 1,
                                         std::size_t{784} * 784};
    for (const std::size_t n : sizes) EXPECT_EQ(fill_normal_mismatch(n, 17), "");

    // The same fills from inside pool tasks: a nested parallel_for on the
    // pool the fill itself uses, then a task of a separate pool.
    std::vector<std::string> nested(sizes.size());
    ThreadPool::global().parallel_for(
        0, sizes.size(), [&](std::size_t i) { nested[i] = fill_normal_mismatch(sizes[i], 23); },
        1);
    for (const auto& m : nested) EXPECT_EQ(m, "");
    std::string in_task;
    ThreadPool pool(2);
    pool.submit([&] { in_task = fill_normal_mismatch(sizes.back(), 29); }).get();
    EXPECT_EQ(in_task, "");
}

TEST(Gemm, MatchesNaive) {
    Rng rng(1);
    const std::size_t m = 17;
    const std::size_t k = 23;
    const std::size_t n = 9;
    Tensor a(Shape{m, k});
    Tensor b(Shape{k, n});
    a.fill_uniform(rng, -1.0F, 1.0F);
    b.fill_uniform(rng, -1.0F, 1.0F);
    Tensor c(Shape{m, n});
    gemm(a, b, c);

    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            float acc = 0.0F;
            for (std::size_t kk = 0; kk < k; ++kk) acc += a.at(i, kk) * b.at(kk, j);
            EXPECT_NEAR(c.at(i, j), acc, 1e-4F);
        }
    }
}

TEST(Gemm, ParallelMatchesSerial) {
    Rng rng(2);
    Tensor a(Shape{64, 32});
    Tensor b(Shape{32, 48});
    a.fill_normal(rng, 0.0F, 1.0F);
    b.fill_normal(rng, 0.0F, 1.0F);
    Tensor serial(Shape{64, 48});
    Tensor parallel(Shape{64, 48});
    gemm(a, b, serial);
    ThreadPool pool(3);
    gemm(a, b, parallel, &pool);
    EXPECT_LT(serial.max_abs_diff(parallel), 1e-5F);
}

TEST(Gemm, AccumulateAddsProductOntoExistingC) {
    Rng rng(4);
    const std::size_t m = 5;
    const std::size_t k = 11;
    const std::size_t n = 7;
    Tensor a(Shape{m, k});
    Tensor b(Shape{k, n});
    Tensor c(Shape{m, n});
    a.fill_uniform(rng, -1.0F, 1.0F);
    b.fill_uniform(rng, -1.0F, 1.0F);
    c.fill_uniform(rng, -2.0F, 2.0F);
    a.at(1, 3) = 0.0F;  // a zero a(i, k) skips its row of B

    // Each element starts at its old value and adds the k products in order.
    Tensor expected(Shape{m, n});
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            float acc = c.at(i, j);
            for (std::size_t kk = 0; kk < k; ++kk) acc += a.at(i, kk) * b.at(kk, j);
            expected.at(i, j) = acc;
        }
    }
    gemm_accumulate(a.data(), b.data(), c.data(), m, k, n);
    EXPECT_EQ(std::memcmp(c.data(), expected.data(), c.numel() * sizeof(float)), 0)
        << "max |diff| " << c.max_abs_diff(expected);

    // gemm() zeroes C first, so whatever C held does not leak into it.
    Tensor clean(Shape{m, n});
    Tensor dirty(Shape{m, n});
    dirty.fill(5.0F);
    gemm(a, b, clean);
    gemm(a, b, dirty);
    EXPECT_EQ(std::memcmp(clean.data(), dirty.data(), clean.numel() * sizeof(float)), 0);
}

TEST(GemmBt, EquivalentToGemmWithTranspose) {
    Rng rng(3);
    const std::size_t m = 12;
    const std::size_t k = 20;
    const std::size_t n = 15;
    Tensor a(Shape{m, k});
    Tensor bt(Shape{n, k});
    a.fill_normal(rng, 0.0F, 1.0F);
    bt.fill_normal(rng, 0.0F, 1.0F);

    Tensor b(Shape{k, n});
    for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = 0; j < n; ++j) b.at(i, j) = bt.at(j, i);
    }
    Tensor c1(Shape{m, n});
    Tensor c2(Shape{m, n});
    gemm(a, b, c1);
    gemm_bt(a, bt, c2);
    EXPECT_LT(c1.max_abs_diff(c2), 1e-4F);
}

TEST(Gemm, ShapeMismatchThrows) {
    Tensor a(Shape{2, 3});
    Tensor b(Shape{4, 5});
    Tensor c(Shape{2, 5});
    EXPECT_THROW(gemm(a, b, c), InvalidArgument);
}

TEST(Ops, AddBiasRows) {
    Tensor y(Shape{2, 3});
    Tensor bias(Shape{3});
    bias.at(0) = 1.0F;
    bias.at(1) = 2.0F;
    bias.at(2) = 3.0F;
    add_bias_rows(y, bias);
    EXPECT_EQ(y.at(0, 0), 1.0F);
    EXPECT_EQ(y.at(1, 2), 3.0F);
}

TEST(Ops, ScaleAddDot) {
    Tensor a(Shape{4});
    a.fill(2.0F);
    scale_inplace(a, 0.5F);
    EXPECT_EQ(a.at(0), 1.0F);
    Tensor b(Shape{4});
    b.fill(3.0F);
    add_inplace(a, b);
    EXPECT_EQ(a.at(3), 4.0F);
    EXPECT_NEAR(dot(a, b), 48.0, 1e-9);
}

}  // namespace
