#include "nn/im2col.hpp"

#include <cstring>

#include "common/error.hpp"

namespace mw::nn {

void im2col_same(const float* input, std::size_t in_ch, std::size_t h, std::size_t w,
                 std::size_t k, Tensor& columns) {
    MW_CHECK(k % 2 == 1, "im2col_same requires an odd filter size");
    const std::size_t rows = in_ch * k * k;
    const std::size_t cols = h * w;
    MW_CHECK(columns.shape() == Shape({rows, cols}), "columns tensor has wrong shape");
    const auto pad = static_cast<std::ptrdiff_t>(k / 2);

    float* dst = columns.data();
    for (std::size_t c = 0; c < in_ch; ++c) {
        const float* plane = input + c * h * w;
        for (std::size_t ky = 0; ky < k; ++ky) {
            for (std::size_t kx = 0; kx < k; ++kx) {
                // Row (c, ky, kx): the input shifted by (ky - pad, kx - pad).
                for (std::size_t y = 0; y < h; ++y) {
                    const auto yy = static_cast<std::ptrdiff_t>(y + ky) - pad;
                    float* row_dst = dst + y * w;
                    if (yy < 0 || yy >= static_cast<std::ptrdiff_t>(h)) {
                        std::memset(row_dst, 0, w * sizeof(float));
                        continue;
                    }
                    const float* src_row = plane + static_cast<std::size_t>(yy) * w;
                    const auto shift = static_cast<std::ptrdiff_t>(kx) - pad;
                    for (std::size_t x = 0; x < w; ++x) {
                        const auto xx = static_cast<std::ptrdiff_t>(x) + shift;
                        row_dst[x] = (xx < 0 || xx >= static_cast<std::ptrdiff_t>(w))
                                         ? 0.0F
                                         : src_row[static_cast<std::size_t>(xx)];
                    }
                }
                dst += cols;
            }
        }
    }
}

}  // namespace mw::nn
