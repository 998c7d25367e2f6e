#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace mw {

Tensor::Tensor(Shape shape)
    : shape_(shape), data_(aligned_alloc_floats(shape.numel())), capacity_(shape.numel()) {
    std::memset(data_.get(), 0, numel() * sizeof(float));
}

Tensor::Tensor(const Tensor& other)
    : shape_(other.shape_),
      data_(aligned_alloc_floats(other.numel())),
      capacity_(other.numel()) {
    if (other.numel() > 0) {
        std::memcpy(data_.get(), other.data_.get(), other.numel() * sizeof(float));
    }
}

Tensor& Tensor::operator=(const Tensor& other) {
    if (this == &other) return *this;
    Tensor copy(other);
    *this = std::move(copy);
    return *this;
}

Tensor::Tensor(Tensor&& other) noexcept
    : shape_(std::move(other.shape_)), data_(std::move(other.data_)), capacity_(other.capacity_) {
    other.shape_ = Shape{};
    other.capacity_ = 0;
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
    if (this == &other) return *this;
    shape_ = std::move(other.shape_);
    data_ = std::move(other.data_);
    capacity_ = other.capacity_;
    other.shape_ = Shape{};
    other.capacity_ = 0;
    return *this;
}

void Tensor::resize(const Shape& shape) {
    const std::size_t needed = shape.numel();
    if (needed > capacity_) {
        data_ = aligned_alloc_floats(needed);
        capacity_ = needed;
    }
    shape_ = shape;
}

float& Tensor::at(std::size_t i) {
    MW_CHECK(i < numel(), "Tensor flat index out of range");
    return data_[i];
}

float Tensor::at(std::size_t i) const {
    MW_CHECK(i < numel(), "Tensor flat index out of range");
    return data_[i];
}

float& Tensor::at(std::size_t r, std::size_t c) {
    MW_CHECK(shape_.rank() == 2, "2-D access requires a rank-2 tensor");
    MW_CHECK(r < shape_[0] && c < shape_[1], "Tensor 2-D index out of range");
    return data_[r * shape_[1] + c];
}

float Tensor::at(std::size_t r, std::size_t c) const {
    MW_CHECK(shape_.rank() == 2, "2-D access requires a rank-2 tensor");
    MW_CHECK(r < shape_[0] && c < shape_[1], "Tensor 2-D index out of range");
    return data_[r * shape_[1] + c];
}

std::span<const float> Tensor::row(std::size_t r) const {
    MW_CHECK(shape_.rank() == 2, "row() requires a rank-2 tensor");
    MW_CHECK(r < shape_[0], "row out of range");
    return {data_.get() + r * shape_[1], shape_[1]};
}

std::span<float> Tensor::row(std::size_t r) {
    MW_CHECK(shape_.rank() == 2, "row() requires a rank-2 tensor");
    MW_CHECK(r < shape_[0], "row out of range");
    return {data_.get() + r * shape_[1], shape_[1]};
}

void Tensor::fill(float value) { std::fill_n(data_.get(), numel(), value); }

void Tensor::fill_normal(Rng& rng, float mean, float stddev) {
    const auto fill_range = [this, mean, stddev](Rng& r, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            (*this)[i] = static_cast<float>(r.normal(mean, stddev));
        }
    };
    const std::size_t n = numel();
    if (n < 2 * kFillNormalBlock) {
        fill_range(rng, 0, n);
        return;
    }
    // Skipping a draw costs two raw steps and no log/sqrt/cos, so one serial
    // pass finds every block's start state and the blocks fill in parallel.
    const std::size_t blocks = (n + kFillNormalBlock - 1) / kFillNormalBlock;
    std::vector<Rng> starts;
    starts.reserve(blocks);
    for (std::size_t b = 0; b < blocks; ++b) {
        starts.push_back(rng);
        rng.discard_normals(std::min(kFillNormalBlock, n - b * kFillNormalBlock));
    }
    ThreadPool::global().parallel_for(
        0, blocks,
        [&](std::size_t b) {
            Rng r = starts[b];
            fill_range(r, b * kFillNormalBlock, std::min(n, (b + 1) * kFillNormalBlock));
        },
        1);
}

void Tensor::fill_uniform(Rng& rng, float lo, float hi) {
    for (std::size_t i = 0; i < numel(); ++i) {
        (*this)[i] = static_cast<float>(rng.uniform(lo, hi));
    }
}

float Tensor::max_abs_diff(const Tensor& other) const {
    MW_CHECK(shape_ == other.shape_, "max_abs_diff shape mismatch");
    float worst = 0.0F;
    for (std::size_t i = 0; i < numel(); ++i) {
        worst = std::max(worst, std::abs((*this)[i] - other[i]));
    }
    return worst;
}

}  // namespace mw
