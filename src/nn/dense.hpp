// Fully connected layer: out = act(in * W^T + b).
#pragma once

#include "nn/activation.hpp"
#include "nn/layer.hpp"

namespace mw::nn {

/// Dense (perceptron) layer. Weights are stored (out_dim x in_dim) — one row
/// per output node — so the forward pass streams both operands row-major
/// (the layout §IV-B of the paper converges on).
class Dense final : public Layer {
public:
    Dense(std::size_t in_dim, std::size_t out_dim, Activation act);

    [[nodiscard]] std::string describe() const override;
    [[nodiscard]] Shape output_shape(const Shape& input) const override;
    void forward(const Tensor& in, Tensor& out, ThreadPool* pool) const override;
    void backward(const Tensor& in, const Tensor& out, const Tensor& dout, Tensor& din,
                  ThreadPool* pool) override;
    [[nodiscard]] LayerCost cost(const Shape& input) const override;

    [[nodiscard]] std::vector<ParamBinding> param_bindings() override;

    [[nodiscard]] std::size_t in_dim() const { return in_dim_; }
    [[nodiscard]] std::size_t out_dim() const { return out_dim_; }
    [[nodiscard]] Activation activation() const { return act_; }

    [[nodiscard]] Tensor& weights() { return weights_; }
    [[nodiscard]] Tensor& bias() { return bias_; }

private:
    std::size_t in_dim_;
    std::size_t out_dim_;
    Activation act_;
    Tensor weights_;       ///< (out_dim, in_dim)
    Tensor bias_;          ///< (out_dim)
    Tensor grad_weights_;  ///< same shape as weights_ once zero_grads() ran
    Tensor grad_bias_;
};

}  // namespace mw::nn
