#include "nn/dense.hpp"

#include "common/format.hpp"

#include "common/error.hpp"
#include "tensor/tensor_ops.hpp"

namespace mw::nn {

Dense::Dense(std::size_t in_dim, std::size_t out_dim, Activation act)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      act_(act),
      weights_(Shape{out_dim, in_dim}),
      bias_(Shape{out_dim}) {
    MW_CHECK(in_dim > 0 && out_dim > 0, "Dense dimensions must be positive");
}

std::string Dense::describe() const {
    return mw::format("dense({}->{}, {})", in_dim_, out_dim_, activation_name(act_));
}

Shape Dense::output_shape(const Shape& input) const {
    MW_CHECK(input.rank() == 2, "Dense expects rank-2 input (batch, features)");
    MW_CHECK(input[1] == in_dim_, "Dense input width mismatch: " + input.str());
    return Shape{input[0], out_dim_};
}

void Dense::forward(const Tensor& in, Tensor& out, ThreadPool* pool) const {
    MW_CHECK(out.shape() == output_shape(in.shape()), "Dense output tensor has wrong shape");
    gemm_bt(in, weights_, out, pool);
    add_bias_rows(out, bias_);
    apply_activation(act_, out);
}

void Dense::backward(const Tensor& in, const Tensor& out, const Tensor& dout, Tensor& din,
                     ThreadPool* pool) {
    (void)pool;  // gradients are accumulated serially; training sets are small
    const std::size_t batch = in.shape()[0];
    MW_CHECK(dout.shape() == out.shape(), "Dense backward dout shape mismatch");
    MW_CHECK(din.shape() == in.shape(), "Dense backward din shape mismatch");
    MW_CHECK(grad_weights_.shape() == weights_.shape(),
             "Dense backward before zero_grads() shaped the gradients");

    // dz = dout ⊙ act'(out); softmax is fused with the loss upstream, in
    // which case dout already is dz and act grad must be identity.
    Tensor dz(dout);
    if (act_ != Activation::kSoftmax && act_ != Activation::kIdentity) {
        float* pz = dz.data();
        const float* po = out.data();
        for (std::size_t i = 0; i < dz.numel(); ++i) {
            pz[i] *= activation_grad_from_output(act_, po[i]);
        }
    }

    // grad_weights += dz^T * in ; grad_bias += colsum(dz) ; din = dz * W.
    for (std::size_t b = 0; b < batch; ++b) {
        const float* dz_row = dz.data() + b * out_dim_;
        const float* in_row = in.data() + b * in_dim_;
        for (std::size_t o = 0; o < out_dim_; ++o) {
            const float g = dz_row[o];
            if (g == 0.0F) continue;
            float* gw_row = grad_weights_.data() + o * in_dim_;
            for (std::size_t i = 0; i < in_dim_; ++i) gw_row[i] += g * in_row[i];
            grad_bias_.at(o) += g;
        }
    }
    for (std::size_t b = 0; b < batch; ++b) {
        const float* dz_row = dz.data() + b * out_dim_;
        float* din_row = din.data() + b * in_dim_;
        std::fill_n(din_row, in_dim_, 0.0F);
        for (std::size_t o = 0; o < out_dim_; ++o) {
            const float g = dz_row[o];
            if (g == 0.0F) continue;
            const float* w_row = weights_.data() + o * in_dim_;
            for (std::size_t i = 0; i < in_dim_; ++i) din_row[i] += g * w_row[i];
        }
    }
}

LayerCost Dense::cost(const Shape& input) const {
    const auto batch = static_cast<double>(input[0]);
    LayerCost c;
    c.flops = batch * 2.0 * static_cast<double>(in_dim_) * static_cast<double>(out_dim_);
    c.bytes_in = batch * static_cast<double>(in_dim_) * sizeof(float);
    c.bytes_out = batch * static_cast<double>(out_dim_) * sizeof(float);
    c.bytes_weights = static_cast<double>(weights_.numel() + bias_.numel()) * sizeof(float);
    c.work_items = batch * static_cast<double>(out_dim_);  // thread-per-node
    c.kernel_launches = 1;
    return c;
}

std::vector<Layer::ParamBinding> Dense::param_bindings() {
    return {{&weights_, &grad_weights_}, {&bias_, &grad_bias_}};
}

}  // namespace mw::nn
