// Tests for the inference engine: layer semantics, hand-computed forwards,
// finite-difference gradient checks, training convergence, the model zoo,
// weight serialization and the analytic cost accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <map>
#include <sstream>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "data/synth.hpp"
#include "nn/activation.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/model_builder.hpp"
#include "nn/pooling.hpp"
#include "nn/trainer.hpp"
#include "nn/weights.hpp"
#include "nn/zoo.hpp"

namespace {

using namespace mw;
using namespace mw::nn;

TEST(Activation, Names) {
    EXPECT_EQ(activation_from_name("relu"), Activation::kRelu);
    EXPECT_EQ(activation_name(Activation::kSoftmax), "softmax");
    EXPECT_THROW(activation_from_name("gelu"), InvalidArgument);
}

TEST(Activation, ReluTanhSigmoid) {
    Tensor t(Shape{4});
    t.at(0) = -1.0F;
    t.at(1) = 2.0F;
    Tensor r(t);
    apply_activation(Activation::kRelu, r);
    EXPECT_EQ(r.at(0), 0.0F);
    EXPECT_EQ(r.at(1), 2.0F);
    Tensor s(t);
    apply_activation(Activation::kSigmoid, s);
    EXPECT_NEAR(s.at(0), 1.0F / (1.0F + std::exp(1.0F)), 1e-6F);
    Tensor h(t);
    apply_activation(Activation::kTanh, h);
    EXPECT_NEAR(h.at(1), std::tanh(2.0F), 1e-6F);
}

TEST(Activation, SoftmaxRowsSumToOne) {
    Rng rng(1);
    Tensor t(Shape{5, 7});
    t.fill_normal(rng, 0.0F, 3.0F);
    apply_activation(Activation::kSoftmax, t);
    for (std::size_t r = 0; r < 5; ++r) {
        float sum = 0.0F;
        for (std::size_t c = 0; c < 7; ++c) {
            EXPECT_GT(t.at(r, c), 0.0F);
            sum += t.at(r, c);
        }
        EXPECT_NEAR(sum, 1.0F, 1e-5F);
    }
}

TEST(Activation, GradFromOutput) {
    EXPECT_EQ(activation_grad_from_output(Activation::kRelu, 0.5F), 1.0F);
    EXPECT_EQ(activation_grad_from_output(Activation::kRelu, 0.0F), 0.0F);
    EXPECT_NEAR(activation_grad_from_output(Activation::kTanh, 0.5F), 0.75F, 1e-6F);
    EXPECT_NEAR(activation_grad_from_output(Activation::kSigmoid, 0.25F), 0.1875F, 1e-6F);
    EXPECT_THROW(activation_grad_from_output(Activation::kSoftmax, 0.1F), InvalidArgument);
}

TEST(Dense, HandComputedForward) {
    Dense layer(2, 2, Activation::kIdentity);
    // W = [[1, 2], [3, 4]], b = [10, 20]; y = x W^T + b.
    layer.weights().at(0, 0) = 1.0F;
    layer.weights().at(0, 1) = 2.0F;
    layer.weights().at(1, 0) = 3.0F;
    layer.weights().at(1, 1) = 4.0F;
    layer.bias().at(0) = 10.0F;
    layer.bias().at(1) = 20.0F;
    Tensor in(Shape{1, 2});
    in.at(0, 0) = 1.0F;
    in.at(0, 1) = 1.0F;
    Tensor out(Shape{1, 2});
    layer.forward(in, out, nullptr);
    EXPECT_NEAR(out.at(0, 0), 13.0F, 1e-6F);
    EXPECT_NEAR(out.at(0, 1), 27.0F, 1e-6F);
}

TEST(Dense, ShapeValidation) {
    Dense layer(4, 3, Activation::kRelu);
    EXPECT_EQ(layer.output_shape(Shape{7, 4}), Shape({7, 3}));
    EXPECT_THROW((void)layer.output_shape(Shape{7, 5}), InvalidArgument);
    EXPECT_THROW((void)layer.output_shape(Shape{7, 4, 1, 1}), InvalidArgument);
}

TEST(Conv2d, IdentityKernelPreservesInterior) {
    Conv2d conv(1, 1, 3, Activation::kIdentity);
    conv.weights().fill(0.0F);
    conv.weights().at(4) = 1.0F;  // centre tap
    Rng rng(2);
    Tensor in(Shape{1, 1, 6, 6});
    in.fill_uniform(rng, 0.0F, 1.0F);
    Tensor out(Shape{1, 1, 6, 6});
    conv.forward(in, out, nullptr);
    EXPECT_LT(in.max_abs_diff(out), 1e-6F);
}

TEST(Conv2d, SummingKernelOnOnes) {
    // A 3x3 all-ones kernel over an all-ones image gives 9 in the interior,
    // 4 at corners and 6 at non-corner edges (zero padding).
    Conv2d conv(1, 1, 3, Activation::kIdentity);
    conv.weights().fill(1.0F);
    Tensor in(Shape{1, 1, 4, 4});
    in.fill(1.0F);
    Tensor out(Shape{1, 1, 4, 4});
    conv.forward(in, out, nullptr);
    EXPECT_NEAR(out.at(0), 4.0F, 1e-6F);       // corner
    EXPECT_NEAR(out.at(1), 6.0F, 1e-6F);       // edge
    EXPECT_NEAR(out.at(5), 9.0F, 1e-6F);       // interior
}

TEST(Conv2d, MultiChannelAccumulates) {
    Conv2d conv(2, 1, 3, Activation::kIdentity);
    conv.weights().fill(0.0F);
    conv.weights().at(4) = 1.0F;       // centre of channel 0
    conv.weights().at(9 + 4) = 2.0F;   // centre of channel 1
    Tensor in(Shape{1, 2, 3, 3});
    in.fill(1.0F);
    Tensor out(Shape{1, 1, 3, 3});
    conv.forward(in, out, nullptr);
    EXPECT_NEAR(out.at(4), 3.0F, 1e-6F);
}

TEST(Conv2d, EvenFilterRejected) {
    EXPECT_THROW(Conv2d(1, 1, 4, Activation::kRelu), InvalidArgument);
}

TEST(MaxPool, Reduces) {
    MaxPool pool(2);
    Tensor in(Shape{1, 1, 4, 4});
    for (std::size_t i = 0; i < 16; ++i) in.at(i) = static_cast<float>(i);
    Tensor out(Shape{1, 1, 2, 2});
    pool.forward(in, out, nullptr);
    EXPECT_EQ(out.at(0), 5.0F);
    EXPECT_EQ(out.at(1), 7.0F);
    EXPECT_EQ(out.at(2), 13.0F);
    EXPECT_EQ(out.at(3), 15.0F);
}

TEST(MaxPool, IndivisibleExtentThrows) {
    MaxPool pool(2);
    EXPECT_THROW((void)pool.output_shape(Shape{1, 1, 5, 4}), InvalidArgument);
}

TEST(Flatten, RoundTripBytes) {
    Flatten flat;
    Rng rng(3);
    Tensor in(Shape{2, 3, 4, 4});
    in.fill_normal(rng, 0.0F, 1.0F);
    Tensor out(Shape{2, 48});
    flat.forward(in, out, nullptr);
    for (std::size_t i = 0; i < in.numel(); ++i) EXPECT_EQ(in.at(i), out.at(i));
}

// ---- gradient checks -------------------------------------------------------

/// Loss of a model at given input/labels (softmax cross-entropy).
double model_loss(Model& model, const Tensor& x, const std::vector<std::size_t>& y) {
    const Tensor probs = model.forward(x);
    return cross_entropy(probs, y, 0, y.size());
}

/// Finite-difference check of every parameter gradient of `model`.
void gradient_check(Model& model, const Tensor& x, const std::vector<std::size_t>& y,
                    double tolerance) {
    // Analytic gradients.
    for (std::size_t li = 0; li < model.layer_count(); ++li) model.layer(li).zero_grads();
    const auto acts = model.forward_collect(x);
    const Tensor& probs = acts.back();
    Tensor dout(probs.shape());
    const float inv = 1.0F / static_cast<float>(y.size());
    for (std::size_t i = 0; i < y.size(); ++i) {
        for (std::size_t c = 0; c < probs.shape()[1]; ++c) {
            dout.at(i, c) = (probs.at(i, c) - (c == y[i] ? 1.0F : 0.0F)) * inv;
        }
    }
    Tensor current = dout;
    for (std::size_t li = model.layer_count(); li-- > 0;) {
        const Tensor& in = li == 0 ? x : acts[li - 1];
        Tensor din(in.shape());
        model.layer(li).backward(in, acts[li], current, din, nullptr);
        current = std::move(din);
    }

    // Numeric comparison on a subset of parameters (every 7th scalar).
    const double eps = 1e-3;
    for (std::size_t li = 0; li < model.layer_count(); ++li) {
        for (const auto& binding : model.layer(li).param_bindings()) {
            for (std::size_t k = 0; k < binding.value->numel(); k += 7) {
                float& w = binding.value->at(k);
                const float saved = w;
                w = saved + static_cast<float>(eps);
                const double up = model_loss(model, x, y);
                w = saved - static_cast<float>(eps);
                const double down = model_loss(model, x, y);
                w = saved;
                const double numeric = (up - down) / (2.0 * eps);
                const double analytic = binding.grad->at(k);
                EXPECT_NEAR(analytic, numeric, tolerance)
                    << "layer " << li << " param " << k;
            }
        }
    }
}

TEST(Gradients, TinyFfnn) {
    FfnnSpec spec;
    spec.input_dim = 5;
    spec.hidden = {7, 6};
    spec.output_dim = 3;
    spec.hidden_act = Activation::kTanh;  // smooth: tight finite differences
    Model model = build_model(ModelSpec{"grad-ffnn", spec, true}, 11);

    Rng rng(4);
    Tensor x(Shape{4, 5});
    x.fill_normal(rng, 0.0F, 1.0F);
    gradient_check(model, x, {0, 1, 2, 0}, 2e-3);
}

TEST(Gradients, TinyCnn) {
    CnnSpec spec;
    spec.in_channels = 1;
    spec.in_h = 6;
    spec.in_w = 6;
    spec.blocks = {{.convs = 1, .filters = 2, .filter_size = 3, .pool_size = 2}};
    spec.dense_hidden = {5};
    spec.output_dim = 3;
    spec.hidden_act = Activation::kTanh;
    Model model = build_model(ModelSpec{"grad-cnn", spec, true}, 13);

    Rng rng(5);
    Tensor x(Shape{3, 1, 6, 6});
    x.fill_normal(rng, 0.0F, 1.0F);
    gradient_check(model, x, {0, 1, 2}, 3e-3);
}

TEST(Gradients, AllocatedOnlyForTraining) {
    Model model = build_model(zoo::mnist_cnn(), 7);
    std::size_t trainable_layers = 0;
    for (std::size_t li = 0; li < model.layer_count(); ++li) {
        const auto bindings = model.layer(li).param_bindings();
        if (!bindings.empty()) ++trainable_layers;
        for (const auto& b : bindings) EXPECT_TRUE(b.grad->empty()) << li;
    }
    EXPECT_GT(trainable_layers, 1U);  // conv and dense layers alike

    // Backward needs shaped gradients; zero_grads() shapes and zeroes them.
    const Tensor x(model.input_shape(1));
    const auto acts = model.forward_collect(x);
    const std::size_t last = model.layer_count() - 1;
    Tensor din(acts[last - 1].shape());
    Tensor din_conv(x.shape());
    EXPECT_THROW(model.layer(last).backward(acts[last - 1], acts[last], acts[last], din, nullptr),
                 InvalidArgument);  // dense
    EXPECT_THROW(model.layer(0).backward(x, acts[0], acts[0], din_conv, nullptr),
                 InvalidArgument);  // conv
    for (std::size_t li = 0; li < model.layer_count(); ++li) {
        model.layer(li).zero_grads();
        for (const auto& b : model.layer(li).param_bindings()) {
            EXPECT_EQ(b.grad->shape(), b.value->shape()) << li;
            for (const float g : b.grad->span()) ASSERT_EQ(g, 0.0F) << li;
        }
    }
    model.layer(last).backward(acts[last - 1], acts[last], acts[last], din, nullptr);
    model.layer(0).backward(x, acts[0], acts[0], din_conv, nullptr);
}

// ---- end-to-end training ---------------------------------------------------

TEST(Trainer, LearnsClusters) {
    auto data = data::make_clusters(400, 6, 3, 3.0, 21);
    FfnnSpec spec;
    spec.input_dim = 6;
    spec.hidden = {16};
    spec.output_dim = 3;
    Model model = build_model(ModelSpec{"clusters", spec, true}, 22);

    TrainConfig config;
    config.epochs = 20;
    config.learning_rate = 0.05F;
    const auto history = train(model, data.x, data.y, config);
    EXPECT_GT(history.back().accuracy, 0.9);
    EXPECT_LT(history.back().loss, history.front().loss);
}

TEST(Trainer, SimpleModelReachesIrisLevelAccuracy) {
    // §III-B.1: the paper's Simple model reaches ~97% on Iris.
    auto data = data::make_iris_like(600, 31);
    Rng rng(1);
    auto split = data::train_test_split(data, 0.25, rng);
    Model model = build_model(zoo::simple(), 33);
    TrainConfig config;
    config.epochs = 60;
    config.learning_rate = 0.03F;
    train(model, split.train.x, split.train.y, config);
    EXPECT_GT(evaluate_accuracy(model, split.test.x, split.test.y), 0.9);
}

// ---- zoo -------------------------------------------------------------------

TEST(Zoo, PaperModelStructures) {
    const Model simple = build_model(zoo::simple(), 1);
    EXPECT_EQ(simple.desc().depth, 3U);           // 2 hidden + output
    EXPECT_EQ(simple.desc().total_neurons, 15U);  // 6 + 6 + 3
    EXPECT_FALSE(simple.desc().is_cnn);

    const Model deep = build_model(zoo::mnist_deep(), 1);
    EXPECT_EQ(deep.desc().depth, 6U);
    EXPECT_EQ(deep.desc().total_neurons, 2500U + 2000 + 1500 + 1000 + 500 + 10);
    // ~12M parameters as derived in the paper's architecture.
    EXPECT_NEAR(static_cast<double>(deep.param_count()), 11.97e6, 0.2e6);

    const Model cnn = build_model(zoo::mnist_cnn(), 1);
    EXPECT_TRUE(cnn.desc().is_cnn);
    EXPECT_EQ(cnn.desc().vgg_blocks, 2U);
    EXPECT_EQ(cnn.desc().convs_per_block, 1U);
    EXPECT_EQ(cnn.desc().filter_size, 3U);
    EXPECT_EQ(cnn.desc().pool_size, 2U);

    const Model cifar = build_model(zoo::cifar10(), 1);
    EXPECT_EQ(cifar.desc().vgg_blocks, 3U);
    EXPECT_EQ(cifar.desc().convs_per_block, 2U);
    EXPECT_EQ(cifar.input_shape(2), Shape({2, 3, 32, 32}));
}

TEST(Zoo, TwentyOneArchitecturesAllBuild) {
    const auto specs = zoo::all_models();
    EXPECT_EQ(specs.size(), 21U);
    for (const auto& spec : specs) {
        const Model m = build_model(spec, 3);
        Rng rng(6);
        Tensor x(m.input_shape(2));
        x.fill_uniform(rng, 0.0F, 1.0F);
        const Tensor out = m.forward(x);
        EXPECT_EQ(out.shape()[0], 2U) << spec.name;
        EXPECT_EQ(out.shape()[1], m.desc().output_dim) << spec.name;
    }
}

TEST(Zoo, ByNameLookup) {
    EXPECT_EQ(zoo::by_name("cifar-10").name, "cifar-10");
    EXPECT_THROW(zoo::by_name("resnet-50"), InvalidArgument);
}

// ---- weights I/O -----------------------------------------------------------

TEST(Weights, SaveLoadRoundTrip) {
    const std::string path = "/tmp/mw_test_weights.bin";
    Model a = build_model(zoo::simple(), 77);
    save_weights(a, path);

    Model b = build_model(zoo::simple(), 99);  // different init
    load_weights(b, path);

    Rng rng(7);
    Tensor x(a.input_shape(8));
    x.fill_uniform(rng, 0.0F, 1.0F);
    const Tensor ya = a.forward(x);
    const Tensor yb = b.forward(x);
    EXPECT_EQ(ya.max_abs_diff(yb), 0.0F);
    std::filesystem::remove(path);
}

TEST(Weights, ArchitectureMismatchRejected) {
    const std::string path = "/tmp/mw_test_weights2.bin";
    Model a = build_model(zoo::simple(), 1);
    save_weights(a, path);
    Model b = build_model(zoo::mnist_small(), 1);
    EXPECT_THROW(load_weights(b, path), IoError);
    std::filesystem::remove(path);
}

TEST(Weights, HeInitHasExpectedScale) {
    FfnnSpec spec;
    spec.input_dim = 512;
    spec.hidden = {512};
    spec.output_dim = 10;
    Model model = build_model(ModelSpec{"init", spec, true}, 17);
    auto* dense = dynamic_cast<Dense*>(&model.layer(0));
    ASSERT_NE(dense, nullptr);
    OnlineStats stats;
    for (const float w : dense->weights().span()) stats.add(w);
    EXPECT_NEAR(stats.mean(), 0.0, 0.01);
    EXPECT_NEAR(stats.stddev(), std::sqrt(2.0 / 512.0), 0.005);
}

/// FNV-1a over the raw bytes of every parameter tensor, in binding order.
std::uint64_t weights_digest(Model& model) {
    std::uint64_t h = 1469598103934665603ULL;
    for (std::size_t li = 0; li < model.layer_count(); ++li) {
        for (const auto& binding : model.layer(li).param_bindings()) {
            const auto* bytes = reinterpret_cast<const unsigned char*>(binding.value->data());
            for (std::size_t i = 0; i < binding.value->numel() * sizeof(float); ++i) {
                h ^= bytes[i];
                h *= 1099511628211ULL;
            }
        }
    }
    return h;
}

// Golden weights: seeded initialisation must draw the same numbers in the
// same order, so every zoo model built with seed 7 reproduces these digests
// bit for bit.
TEST(Weights, GoldenWeightsAreBitIdentical) {
    const std::map<std::string, std::uint64_t> expected = {
        // clang-format off
        {"simple", 0xf14f637e95596b3d},
        {"mnist-small", 0x9433288c1c667091},
        {"mnist-deep", 0x19211478c25a2b9a},
        {"mnist-cnn", 0x6205c1e9a03026d2},
        {"cifar-10", 0x102197c911fda096},
        {"ffnn-aug-w64", 0xe79ccb99cb62610d},
        {"ffnn-aug-w256x2", 0xa937086fe2dc14e6},
        {"ffnn-aug-w1024", 0xce9bd5496344885c},
        {"ffnn-aug-w1024x3", 0x64166c7ab5b4559a},
        {"ffnn-aug-w3000x2", 0x85f350ebce771545},
        {"ffnn-aug-d4narrow", 0xc4fd27174c1bada9},
        {"ffnn-aug-d6taper", 0x337211979ba778e9},
        {"ffnn-aug-tiny", 0xd12c3cd7cfa90b86},
        {"cnn-aug-b1c1f16", 0x34766aed423a3295},
        {"cnn-aug-b2c2f32", 0x4da81b8886c41c93},
        {"cnn-aug-k5f32", 0x0f31dab6904f6d67},
        {"cnn-aug-b2k5", 0xc15c34b496e58e4a},
        {"cnn-aug-b3c3", 0x264aeb028286a24b},
        {"cnn-aug-b4f32", 0x6b56cae388637740},
        {"cnn-aug-k7f8", 0x9d5d6486cd775c3f},
        {"cnn-aug-p4f16", 0xfb99cfcdcfd2256d},
        // clang-format on
    };
    std::map<std::string, std::uint64_t> actual;
    std::ostringstream listing;  // paste-ready table for a deliberate re-record
    for (const auto& spec : zoo::all_models()) {
        Model model = build_model(spec, 7);
        actual[spec.name] = weights_digest(model);
        listing << "{\"" << spec.name << "\", 0x" << std::hex << actual[spec.name] << std::dec
                << "},\n";
    }
    EXPECT_EQ(actual, expected) << listing.str();
}

// ---- cost accounting -------------------------------------------------------

TEST(Cost, DenseFlopsAndWorkItems) {
    Dense layer(784, 800, Activation::kRelu);
    const LayerCost c = layer.cost(Shape{32, 784});
    EXPECT_NEAR(c.flops, 32.0 * 2 * 784 * 800, 1.0);
    EXPECT_NEAR(c.work_items, 32.0 * 800, 1.0);
    EXPECT_EQ(c.kernel_launches, 1);
    EXPECT_NEAR(c.bytes_weights, (784.0 * 800 + 800) * 4, 1.0);
}

TEST(Cost, ModelAggregationScalesWithBatch) {
    const Model m = build_model(zoo::mnist_small(), 1);
    const ModelCost c1 = m.cost(1);
    const ModelCost c64 = m.cost(64);
    EXPECT_NEAR(c64.total.flops, 64.0 * c1.total.flops, 1.0);
    EXPECT_EQ(c1.per_layer.size(), m.layer_count());
    // Per-sample flops of mnist-small: 2*(784*784 + 784*800 + 800*10).
    EXPECT_NEAR(c1.total.flops, 2.0 * (784.0 * 784 + 784 * 800 + 800 * 10), 1.0);
}

TEST(Cost, BytesPerSampleMatchesInput) {
    const Model cifar = build_model(zoo::cifar10(), 1);
    EXPECT_EQ(cifar.bytes_per_sample(), 3U * 32 * 32 * 4);
    const Model simple = build_model(zoo::simple(), 1);
    EXPECT_EQ(simple.bytes_per_sample(), 4U * 4);
}

TEST(Model, ClassifyReturnsArgmax) {
    Model m = build_model(zoo::simple(), 5);
    Rng rng(8);
    Tensor x(m.input_shape(16));
    x.fill_uniform(rng, 0.0F, 1.0F);
    const auto labels = m.classify(x);
    const Tensor probs = m.forward(x);
    for (std::size_t i = 0; i < 16; ++i) {
        for (std::size_t c = 0; c < 3; ++c) {
            EXPECT_LE(probs.at(i, c), probs.at(i, labels[i]) + 1e-7F);
        }
    }
}

TEST(Model, ParallelForwardMatchesSerial) {
    Model m = build_model(zoo::mnist_cnn(), 9);
    Rng rng(9);
    Tensor x(m.input_shape(8));
    x.fill_uniform(rng, 0.0F, 1.0F);
    const Tensor serial = m.forward(x);
    ThreadPool pool(3);
    const Tensor parallel = m.forward(x, &pool);
    EXPECT_LT(serial.max_abs_diff(parallel), 1e-6F);
}

}  // namespace
