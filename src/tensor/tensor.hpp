// Owning, SIMD-aligned, row-major float tensor.
#pragma once

#include <span>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "tensor/shape.hpp"

namespace mw {

/// A dense float tensor with value semantics (deep copy) and aligned storage.
class Tensor {
public:
    Tensor() = default;

    /// Allocate a zero-initialised tensor of the given shape.
    explicit Tensor(Shape shape);

    Tensor(const Tensor& other);
    Tensor& operator=(const Tensor& other);
    Tensor(Tensor&& other) noexcept;
    Tensor& operator=(Tensor&& other) noexcept;

    [[nodiscard]] const Shape& shape() const { return shape_; }
    [[nodiscard]] std::size_t numel() const { return shape_.numel(); }
    [[nodiscard]] bool empty() const { return numel() == 0; }

    [[nodiscard]] float* data() { return data_.get(); }
    [[nodiscard]] const float* data() const { return data_.get(); }
    [[nodiscard]] std::span<float> span() { return {data_.get(), numel()}; }
    [[nodiscard]] std::span<const float> span() const { return {data_.get(), numel()}; }

    /// Flat element access with bounds checking in debug paths.
    float& at(std::size_t i);
    [[nodiscard]] float at(std::size_t i) const;

    /// Hot-path flat element access: bounds-checked in debug builds
    /// (MW_DCHECK, active under the sanitizer presets), unchecked in release.
    float& operator[](std::size_t i) {
        MW_DCHECK(i < numel(), "Tensor flat index out of range");
        return data_[i];
    }
    [[nodiscard]] float operator[](std::size_t i) const {
        MW_DCHECK(i < numel(), "Tensor flat index out of range");
        return data_[i];
    }

    /// 2-D access (rank-2 tensors): row-major (row, col).
    float& at(std::size_t row, std::size_t col);
    [[nodiscard]] float at(std::size_t row, std::size_t col) const;

    /// Row view of a rank-2 tensor.
    [[nodiscard]] std::span<const float> row(std::size_t r) const;
    [[nodiscard]] std::span<float> row(std::size_t r);

    /// Reshape in place, reusing the existing allocation when it is large
    /// enough (contents become unspecified); reallocates (and grows
    /// `capacity()`) only when `shape.numel() > capacity()`. This is the
    /// hot-path alternative to constructing a fresh Tensor per batch.
    void resize(const Shape& shape);

    /// Number of floats the current allocation can hold (>= numel()).
    [[nodiscard]] std::size_t capacity() const { return capacity_; }

    void fill(float value);

    /// Elements per task of a parallel `fill_normal`.
    static constexpr std::size_t kFillNormalBlock = std::size_t{1} << 14;

    /// Fill with N(mean, stddev) draws from `rng`: element i gets the i-th
    /// `rng.normal(mean, stddev)`, and `rng` ends where that serial loop would
    /// leave it. Tensors of two or more blocks are filled one task per block
    /// on `ThreadPool::global()`, each task starting from the generator state
    /// a serial skip pass recorded for its block, so the result is
    /// bit-identical for any thread count.
    void fill_normal(Rng& rng, float mean, float stddev);

    /// Fill with U[lo, hi) draws from `rng`.
    void fill_uniform(Rng& rng, float lo, float hi);

    /// Max absolute elementwise difference; shapes must match.
    [[nodiscard]] float max_abs_diff(const Tensor& other) const;

private:
    Shape shape_;
    AlignedFloatPtr data_;
    std::size_t capacity_ = 0;
};

}  // namespace mw
