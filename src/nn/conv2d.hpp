// 2-D convolution layer (NCHW, stride 1, "same" zero padding).
#pragma once

#include "nn/activation.hpp"
#include "nn/layer.hpp"

namespace mw::nn {

/// Convolution with square filters and same-padding, as used by the paper's
/// VGG blocks (3x3x32 filters). Weight layout: (filters, in_ch, k, k).
/// forward() lowers each sample with im2col_same (nn/im2col.hpp) and runs
/// the product through mw::gemm_accumulate.
class Conv2d final : public Layer {
public:
    Conv2d(std::size_t in_channels, std::size_t filters, std::size_t filter_size, Activation act);

    [[nodiscard]] std::string describe() const override;
    [[nodiscard]] Shape output_shape(const Shape& input) const override;
    void forward(const Tensor& in, Tensor& out, ThreadPool* pool) const override;
    void backward(const Tensor& in, const Tensor& out, const Tensor& dout, Tensor& din,
                  ThreadPool* pool) override;
    [[nodiscard]] LayerCost cost(const Shape& input) const override;
    [[nodiscard]] std::vector<ParamBinding> param_bindings() override;

    [[nodiscard]] std::size_t in_channels() const { return in_channels_; }
    [[nodiscard]] std::size_t filters() const { return filters_; }
    [[nodiscard]] std::size_t filter_size() const { return k_; }
    [[nodiscard]] Activation activation() const { return act_; }

    [[nodiscard]] Tensor& weights() { return weights_; }
    [[nodiscard]] Tensor& bias() { return bias_; }

private:
    std::size_t in_channels_;
    std::size_t filters_;
    std::size_t k_;
    Activation act_;
    Tensor weights_;  ///< (filters, in_ch, k, k)
    Tensor bias_;     ///< (filters)
    Tensor grad_weights_;  ///< same shape as weights_ once zero_grads() ran
    Tensor grad_bias_;
};

}  // namespace mw::nn
