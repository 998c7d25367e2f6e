#include "nn/conv2d.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/format.hpp"
#include "nn/im2col.hpp"
#include "tensor/tensor_ops.hpp"

namespace mw::nn {

Conv2d::Conv2d(std::size_t in_channels, std::size_t filters, std::size_t filter_size,
               Activation act)
    : in_channels_(in_channels),
      filters_(filters),
      k_(filter_size),
      act_(act),
      weights_(Shape{filters, in_channels, filter_size, filter_size}),
      bias_(Shape{filters}) {
    MW_CHECK(in_channels > 0 && filters > 0, "Conv2d dims must be positive");
    MW_CHECK(filter_size % 2 == 1, "Conv2d same-padding requires odd filter size");
}

std::string Conv2d::describe() const {
    return mw::format("conv2d({}ch->{}f, {}x{}, {})", in_channels_, filters_, k_, k_,
                       activation_name(act_));
}

Shape Conv2d::output_shape(const Shape& input) const {
    MW_CHECK(input.rank() == 4, "Conv2d expects rank-4 input (batch, ch, h, w)");
    MW_CHECK(input[1] == in_channels_, "Conv2d channel mismatch: " + input.str());
    return Shape{input[0], filters_, input[2], input[3]};
}

void Conv2d::forward(const Tensor& in, Tensor& out, ThreadPool* pool) const {
    MW_CHECK(out.shape() == output_shape(in.shape()), "Conv2d output tensor has wrong shape");
    const std::size_t batch = in.shape()[0];
    const std::size_t h = in.shape()[2];
    const std::size_t w = in.shape()[3];
    const std::size_t plane = h * w;
    const std::size_t patch_rows = in_channels_ * k_ * k_;

    // out_b (filters x plane) = bias + W (filters x patch_rows) * columns:
    // every output sums its bias, then the taps in (c, ky, kx) order.
    auto run_sample = [&](std::size_t b) {
        Tensor columns(Shape{patch_rows, plane});
        im2col_same(in.data() + b * in_channels_ * plane, in_channels_, h, w, k_, columns);
        float* out_base = out.data() + b * filters_ * plane;
        for (std::size_t f = 0; f < filters_; ++f) {
            std::fill_n(out_base + f * plane, plane, bias_.at(f));
        }
        gemm_accumulate(weights_.data(), columns.data(), out_base, filters_, patch_rows, plane);
    };

    // Samples spread over the pool; the per-sample GEMM runs serially, so
    // parallel_for never nests on one pool.
    if (pool && batch > 1) {
        pool->parallel_for(0, batch, run_sample, 1);
    } else {
        for (std::size_t b = 0; b < batch; ++b) run_sample(b);
    }
    apply_activation(act_, out);
}

void Conv2d::backward(const Tensor& in, const Tensor& out, const Tensor& dout, Tensor& din,
                      ThreadPool* pool) {
    (void)pool;
    MW_CHECK(dout.shape() == out.shape(), "Conv2d backward dout shape mismatch");
    MW_CHECK(din.shape() == in.shape(), "Conv2d backward din shape mismatch");
    MW_CHECK(grad_weights_.shape() == weights_.shape(),
             "Conv2d backward before zero_grads() shaped the gradients");
    const std::size_t batch = in.shape()[0];
    const std::size_t h = in.shape()[2];
    const std::size_t w = in.shape()[3];
    const auto pad = static_cast<std::ptrdiff_t>(k_ / 2);
    const std::size_t plane = h * w;

    // dz = dout ⊙ act'(out)
    Tensor dz(dout);
    if (act_ != Activation::kIdentity && act_ != Activation::kSoftmax) {
        float* pz = dz.data();
        const float* po = out.data();
        for (std::size_t i = 0; i < dz.numel(); ++i) {
            pz[i] *= activation_grad_from_output(act_, po[i]);
        }
    }

    din.fill(0.0F);
    for (std::size_t b = 0; b < batch; ++b) {
        const float* in_base = in.data() + b * in_channels_ * plane;
        const float* dz_base = dz.data() + b * filters_ * plane;
        float* din_base = din.data() + b * in_channels_ * plane;
        for (std::size_t f = 0; f < filters_; ++f) {
            const float* dz_ch = dz_base + f * plane;
            const float* w_filter = weights_.data() + f * in_channels_ * k_ * k_;
            float* gw_filter = grad_weights_.data() + f * in_channels_ * k_ * k_;
            float gb = 0.0F;
            for (std::size_t y = 0; y < h; ++y) {
                for (std::size_t x = 0; x < w; ++x) {
                    const float g = dz_ch[y * w + x];
                    if (g == 0.0F) continue;
                    gb += g;
                    for (std::size_t c = 0; c < in_channels_; ++c) {
                        const float* in_ch = in_base + c * plane;
                        float* din_ch = din_base + c * plane;
                        const float* w_ch = w_filter + c * k_ * k_;
                        float* gw_ch = gw_filter + c * k_ * k_;
                        for (std::size_t ky = 0; ky < k_; ++ky) {
                            const auto yy = static_cast<std::ptrdiff_t>(y + ky) - pad;
                            if (yy < 0 || yy >= static_cast<std::ptrdiff_t>(h)) continue;
                            for (std::size_t kx = 0; kx < k_; ++kx) {
                                const auto xx = static_cast<std::ptrdiff_t>(x + kx) - pad;
                                if (xx < 0 || xx >= static_cast<std::ptrdiff_t>(w)) continue;
                                const std::size_t idx =
                                    static_cast<std::size_t>(yy) * w + static_cast<std::size_t>(xx);
                                gw_ch[ky * k_ + kx] += g * in_ch[idx];
                                din_ch[idx] += g * w_ch[ky * k_ + kx];
                            }
                        }
                    }
                }
            }
            grad_bias_.at(f) += gb;
        }
    }
}

LayerCost Conv2d::cost(const Shape& input) const {
    const auto batch = static_cast<double>(input[0]);
    const auto h = static_cast<double>(input[2]);
    const auto w = static_cast<double>(input[3]);
    const auto taps = static_cast<double>(k_ * k_ * in_channels_);
    LayerCost c;
    c.flops = batch * static_cast<double>(filters_) * h * w * taps * 2.0;
    c.bytes_in = batch * static_cast<double>(in_channels_) * h * w * sizeof(float);
    c.bytes_out = batch * static_cast<double>(filters_) * h * w * sizeof(float);
    c.bytes_weights = static_cast<double>(weights_.numel() + bias_.numel()) * sizeof(float);
    // Convolution kernels tile one output *row* of one filter per work-item
    // (pixel-level threads would oversubscribe even tiny batches and hide
    // the occupancy cliff the paper measures on CIFAR at small sizes).
    c.work_items = batch * static_cast<double>(filters_) * h;
    c.kernel_launches = 1;
    return c;
}

std::vector<Layer::ParamBinding> Conv2d::param_bindings() {
    return {{&weights_, &grad_weights_}, {&bias_, &grad_bias_}};
}

}  // namespace mw::nn
