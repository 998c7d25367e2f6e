// Tests for whole-model serialization (.mwmodel files) and the im2col +
// GEMM convolution forward.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>

#include "common/thread_pool.hpp"
#include "nn/conv2d.hpp"
#include "nn/im2col.hpp"
#include "nn/model_builder.hpp"
#include "nn/serialize.hpp"
#include "nn/zoo.hpp"
#include "sched/dispatcher.hpp"

namespace {

using namespace mw;
using namespace mw::nn;

// ---- spec text round trips --------------------------------------------------

class SpecRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(SpecRoundTrip, TextPreservesArchitecture) {
    const ModelSpec original = zoo::by_name(GetParam());
    const ModelSpec parsed = spec_from_text(spec_to_text(original));
    EXPECT_EQ(parsed.name, original.name);
    EXPECT_EQ(parsed.is_cnn(), original.is_cnn());
    EXPECT_EQ(parsed.softmax_output, original.softmax_output);
    if (original.is_cnn()) {
        EXPECT_EQ(parsed.cnn().blocks.size(), original.cnn().blocks.size());
        EXPECT_EQ(parsed.cnn().in_h, original.cnn().in_h);
        EXPECT_EQ(parsed.cnn().dense_hidden, original.cnn().dense_hidden);
        EXPECT_EQ(parsed.cnn().output_dim, original.cnn().output_dim);
        for (std::size_t b = 0; b < parsed.cnn().blocks.size(); ++b) {
            EXPECT_EQ(parsed.cnn().blocks[b].convs, original.cnn().blocks[b].convs);
            EXPECT_EQ(parsed.cnn().blocks[b].filters, original.cnn().blocks[b].filters);
            EXPECT_EQ(parsed.cnn().blocks[b].filter_size,
                      original.cnn().blocks[b].filter_size);
            EXPECT_EQ(parsed.cnn().blocks[b].pool_size, original.cnn().blocks[b].pool_size);
        }
    } else {
        EXPECT_EQ(parsed.ffnn().input_dim, original.ffnn().input_dim);
        EXPECT_EQ(parsed.ffnn().hidden, original.ffnn().hidden);
        EXPECT_EQ(parsed.ffnn().output_dim, original.ffnn().output_dim);
    }
    // The rebuilt models agree structurally.
    const Model a = build_model(original, 7);
    const Model b = build_model(parsed, 7);
    EXPECT_EQ(a.desc().total_neurons, b.desc().total_neurons);
    EXPECT_EQ(a.param_count(), b.param_count());
}

INSTANTIATE_TEST_SUITE_P(Zoo, SpecRoundTrip,
                         ::testing::Values("simple", "mnist-small", "mnist-deep",
                                           "mnist-cnn", "cifar-10", "cnn-aug-p4f16",
                                           "ffnn-aug-d6taper"),
                         [](const auto& info) {
                             std::string n = info.param;
                             for (auto& c : n) {
                                 if (c == '-') c = '_';
                             }
                             return n;
                         });

TEST(SpecText, MalformedHeadersRejected) {
    EXPECT_THROW(spec_from_text("garbage"), IoError);
    EXPECT_THROW(spec_from_text("manyworlds-model v1\nname x\nfamily alien\n"), IoError);
    EXPECT_THROW(spec_from_text("manyworlds-model v1\nfamily ffnn\n"), IoError);
    EXPECT_THROW(spec_from_text("manyworlds-model v1\nname x\nunknown_key 3\n"), IoError);
}

// ---- full model files -------------------------------------------------------

TEST(ModelFile, SaveLoadPreservesPredictions) {
    const std::string path = "/tmp/mw_test_model.mwmodel";
    const Model original = build_model(zoo::mnist_cnn(), 77);
    save_model(original, path);

    const Model restored = load_model(path);
    EXPECT_EQ(restored.name(), "mnist-cnn");

    Rng rng(3);
    Tensor x(original.input_shape(4));
    x.fill_uniform(rng, 0.0F, 1.0F);
    EXPECT_EQ(original.forward(x).max_abs_diff(restored.forward(x)), 0.0F);
    std::filesystem::remove(path);
}

TEST(ModelFile, MissingFileThrows) { EXPECT_THROW(load_model("/nonexistent.mwmodel"), IoError); }

TEST(ModelFile, TruncatedWeightsRejected) {
    const std::string path = "/tmp/mw_test_trunc.mwmodel";
    const Model original = build_model(zoo::simple(), 7);
    save_model(original, path);
    // Chop the tail of the weights blob.
    const auto size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, size - 16);
    EXPECT_THROW(load_model(path), IoError);
    std::filesystem::remove(path);
}

TEST(ModelFile, DispatcherDynamicallyAddsModel) {
    const std::string path = "/tmp/mw_test_dynamic.mwmodel";
    save_model(build_model(zoo::mnist_small(), 5), path);

    auto registry = device::DeviceRegistry::standard_testbed();
    sched::Dispatcher dispatcher(registry);
    const std::string name = dispatcher.register_from_file(path);
    EXPECT_EQ(name, "mnist-small");
    dispatcher.deploy(name);
    EXPECT_TRUE(registry.at("gtx1080ti").has_model("mnist-small"));

    // Scheduling features come straight from the restored descriptor.
    EXPECT_EQ(dispatcher.desc(name).total_neurons, 784U + 800 + 10);
    std::filesystem::remove(path);
}

// ---- im2col convolution -----------------------------------------------------

TEST(Im2col, PatchMatrixOfIdentityKernelPosition) {
    // A 1-channel 3x3 input, k=3: the centre row of the patch matrix (ky=1,
    // kx=1) must equal the flattened input.
    Tensor in(Shape{1, 1, 3, 3});
    for (std::size_t i = 0; i < 9; ++i) in.at(i) = static_cast<float>(i + 1);
    Tensor columns(Shape{9, 9});
    im2col_same(in.data(), 1, 3, 3, 3, columns);
    for (std::size_t i = 0; i < 9; ++i) {
        EXPECT_EQ(columns.at(4, i), static_cast<float>(i + 1));  // row (0,1,1)
    }
    // Top-left tap (ky=0,kx=0) shifts down-right with zero padding at (0,*).
    EXPECT_EQ(columns.at(0, 0), 0.0F);
    EXPECT_EQ(columns.at(0, 4), 1.0F);  // centre pixel sees input(0,0)
}

/// Same-padded stride-1 convolution in the textbook loop order: each output
/// starts at its bias and adds the in-bounds taps in (c, ky, kx) order.
Tensor naive_conv(const Tensor& in, const Tensor& weights, const Tensor& bias) {
    const std::size_t batch = in.shape()[0];
    const std::size_t in_ch = in.shape()[1];
    const std::size_t h = in.shape()[2];
    const std::size_t w = in.shape()[3];
    const std::size_t filters = weights.shape()[0];
    const std::size_t k = weights.shape()[2];
    const auto pad = static_cast<std::ptrdiff_t>(k / 2);
    const auto hh = static_cast<std::ptrdiff_t>(h);
    const auto ww = static_cast<std::ptrdiff_t>(w);
    Tensor out(Shape{batch, filters, h, w});
    for (std::size_t b = 0; b < batch; ++b) {
        for (std::size_t f = 0; f < filters; ++f) {
            for (std::ptrdiff_t y = 0; y < hh; ++y) {
                for (std::ptrdiff_t x = 0; x < ww; ++x) {
                    float acc = bias.at(f);
                    for (std::size_t c = 0; c < in_ch; ++c) {
                        for (std::size_t ky = 0; ky < k; ++ky) {
                            const std::ptrdiff_t yy = y + static_cast<std::ptrdiff_t>(ky) - pad;
                            if (yy < 0 || yy >= hh) continue;
                            for (std::size_t kx = 0; kx < k; ++kx) {
                                const std::ptrdiff_t xx =
                                    x + static_cast<std::ptrdiff_t>(kx) - pad;
                                if (xx < 0 || xx >= ww) continue;
                                acc += weights.at(((f * in_ch + c) * k + ky) * k + kx) *
                                       in.at(((b * in_ch + c) * h + static_cast<std::size_t>(yy)) *
                                                 w +
                                             static_cast<std::size_t>(xx));
                            }
                        }
                    }
                    out.at(((b * filters + f) * h + static_cast<std::size_t>(y)) * w +
                           static_cast<std::size_t>(x)) = acc;
                }
            }
        }
    }
    return out;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

class ConvEquivalence : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(ConvEquivalence, ForwardIsBitwiseEqualToNaiveReference) {
    const auto [in_ch, filters, k, hw] = GetParam();
    Conv2d conv(in_ch, filters, k, Activation::kIdentity);
    Rng rng(11);
    conv.weights().fill_normal(rng, 0.0F, 0.2F);
    conv.bias().fill_uniform(rng, -0.1F, 0.1F);

    Tensor in(Shape{3, static_cast<std::size_t>(in_ch), static_cast<std::size_t>(hw),
                    static_cast<std::size_t>(hw)});
    in.fill_normal(rng, 0.0F, 1.0F);
    const Tensor reference = naive_conv(in, conv.weights(), conv.bias());

    Tensor serial(conv.output_shape(in.shape()));
    conv.forward(in, serial, nullptr);
    EXPECT_TRUE(bitwise_equal(serial, reference))
        << "max |diff| " << serial.max_abs_diff(reference);

    ThreadPool pool(3);
    Tensor pooled(conv.output_shape(in.shape()));
    conv.forward(in, pooled, &pool);
    EXPECT_TRUE(bitwise_equal(pooled, reference))
        << "max |diff| " << pooled.max_abs_diff(reference);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ConvEquivalence,
                         ::testing::Values(std::tuple{1, 1, 3, 6}, std::tuple{1, 32, 3, 28},
                                           std::tuple{3, 32, 3, 16}, std::tuple{3, 8, 5, 12},
                                           std::tuple{2, 4, 7, 14}, std::tuple{8, 16, 3, 8}));

TEST(Im2col, ParallelMatchesSerial) {
    Conv2d conv(3, 16, 3, Activation::kIdentity);
    Rng rng(12);
    conv.weights().fill_normal(rng, 0.0F, 0.2F);
    Tensor in(Shape{6, 3, 16, 16});
    in.fill_normal(rng, 0.0F, 1.0F);
    Tensor serial(conv.output_shape(in.shape()));
    conv.forward(in, serial, nullptr);
    ThreadPool pool(3);
    Tensor parallel(conv.output_shape(in.shape()));
    conv.forward(in, parallel, &pool);
    EXPECT_TRUE(bitwise_equal(serial, parallel))
        << "max |diff| " << serial.max_abs_diff(parallel);
}

}  // namespace
