// The layer abstraction of the inference engine.
//
// A Layer is a pure function from an input activation tensor to an output
// activation tensor, plus (for trainable layers) parameter storage and a
// backward pass. Layers also self-report an analytic cost profile — the
// execution model in src/device prices a model run from the sum of its
// layers' costs, mirroring how each layer maps to one OpenCL kernel launch
// in the paper's implementation.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "tensor/tensor.hpp"

namespace mw::nn {

/// Analytic cost profile of one layer at a given batch size.
struct LayerCost {
    double flops = 0.0;          ///< multiply-add counted as 2 flops
    double bytes_in = 0.0;       ///< activation bytes read
    double bytes_out = 0.0;      ///< activation bytes written
    double bytes_weights = 0.0;  ///< parameter bytes streamed
    double work_items = 0.0;     ///< OpenCL work-items (thread-per-node, §IV-B)
    int kernel_launches = 0;     ///< device kernel invocations

    LayerCost& operator+=(const LayerCost& other) {
        flops += other.flops;
        bytes_in += other.bytes_in;
        bytes_out += other.bytes_out;
        bytes_weights += other.bytes_weights;
        work_items += other.work_items;
        kernel_launches += other.kernel_launches;
        return *this;
    }
};

/// Abstract inference/training layer.
class Layer {
public:
    virtual ~Layer() = default;

    /// Human-readable kind, e.g. "dense(800, relu)".
    [[nodiscard]] virtual std::string describe() const = 0;

    /// Output shape produced for a given input shape; throws
    /// mw::InvalidArgument when the input shape is incompatible.
    [[nodiscard]] virtual Shape output_shape(const Shape& input) const = 0;

    /// Compute out = f(in). `out` must already have output_shape(in.shape()).
    /// `pool` may be null (serial execution).
    virtual void forward(const Tensor& in, Tensor& out, ThreadPool* pool) const = 0;

    /// Backpropagate: given the forward pair (in, out) and dL/dout, compute
    /// dL/din into `din` and accumulate parameter gradients. Layers without
    /// parameters only propagate; layers with parameters require
    /// zero_grads() to have shaped their gradients first. Default: throws
    /// (inference-only layer).
    virtual void backward(const Tensor& in, const Tensor& out, const Tensor& dout, Tensor& din,
                          ThreadPool* pool);

    /// Analytic cost at batch size `batch` for the given input shape.
    [[nodiscard]] virtual LayerCost cost(const Shape& input) const = 0;

    /// Pairs of (parameter tensor, gradient tensor) owned by the layer;
    /// empty for parameter-free layers. The trainer and the weights I/O
    /// module iterate these in order. A gradient stays empty until the
    /// first zero_grads(), so an inference-only model holds no gradient
    /// buffers.
    struct ParamBinding {
        Tensor* value;
        Tensor* grad;
    };
    [[nodiscard]] virtual std::vector<ParamBinding> param_bindings() { return {}; }

    /// Total trainable scalar count.
    [[nodiscard]] std::size_t param_count() {
        std::size_t n = 0;
        for (const auto& b : param_bindings()) n += b.value->numel();
        return n;
    }

    /// Reset accumulated gradients to zero, allocating them (shaped like
    /// their parameters) on first use.
    void zero_grads() {
        for (auto& b : param_bindings()) {
            if (b.grad->shape() == b.value->shape()) {
                b.grad->fill(0.0F);
            } else {
                *b.grad = Tensor(b.value->shape());
            }
        }
    }
};

using LayerPtr = std::unique_ptr<Layer>;

inline void Layer::backward(const Tensor& /*in*/, const Tensor& /*out*/, const Tensor& /*dout*/,
                            Tensor& /*din*/, ThreadPool* /*pool*/) {
    throw Error("layer `" + describe() + "` does not implement backward");
}

}  // namespace mw::nn
