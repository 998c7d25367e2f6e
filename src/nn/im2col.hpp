// im2col lowering for Conv2d::forward (§IV-B of the paper weighs such
// layout/kernel choices). Lowering the input into a patch matrix turns the
// convolution into one GEMM per sample, which vectorises across the output
// plane at the cost of materialising the patch matrix.
#pragma once

#include "tensor/tensor.hpp"

namespace mw::nn {

/// Lower one sample (in_ch, h, w) with same-padding into the patch matrix
/// `columns` of shape (in_ch * k * k, h * w). `k` must be odd.
void im2col_same(const float* input, std::size_t in_ch, std::size_t h, std::size_t w,
                 std::size_t k, Tensor& columns);

}  // namespace mw::nn
