// google-benchmark microbenchmarks of the real inference kernels that every
// device executes (GEMM, convolution, pooling, full-model forward passes),
// plus the seeded model build that adding a model to a running server pays.
#include <benchmark/benchmark.h>

#include "common/thread_pool.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/model_builder.hpp"
#include "nn/pooling.hpp"
#include "nn/zoo.hpp"
#include "tensor/tensor_ops.hpp"

namespace {

using namespace mw;

void BM_GemmBt(benchmark::State& state) {
    const auto m = static_cast<std::size_t>(state.range(0));
    const std::size_t k = 784;
    const std::size_t n = 800;
    Rng rng(1);
    Tensor a(Shape{m, k});
    Tensor bt(Shape{n, k});
    Tensor c(Shape{m, n});
    a.fill_normal(rng, 0.0F, 1.0F);
    bt.fill_normal(rng, 0.0F, 1.0F);
    for (auto _ : state) {
        gemm_bt(a, bt, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * m);
    state.counters["GFLOP/s"] = benchmark::Counter(
        static_cast<double>(state.iterations()) * 2.0 * static_cast<double>(m * k * n) / 1e9,
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmBt)->Arg(8)->Arg(64)->Arg(256);

void BM_GemmBtParallel(benchmark::State& state) {
    const auto m = static_cast<std::size_t>(state.range(0));
    const std::size_t k = 784;
    const std::size_t n = 800;
    Rng rng(1);
    Tensor a(Shape{m, k});
    Tensor bt(Shape{n, k});
    Tensor c(Shape{m, n});
    a.fill_normal(rng, 0.0F, 1.0F);
    bt.fill_normal(rng, 0.0F, 1.0F);
    ThreadPool pool;
    for (auto _ : state) {
        gemm_bt(a, bt, c, &pool);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * m);
}
BENCHMARK(BM_GemmBtParallel)->Arg(64)->Arg(256);

void BM_Conv2d(benchmark::State& state) {
    const auto batch = static_cast<std::size_t>(state.range(0));
    nn::Conv2d conv(3, 32, 3, nn::Activation::kRelu);
    Rng rng(2);
    conv.weights().fill_normal(rng, 0.0F, 0.1F);
    Tensor in(Shape{batch, 3, 32, 32});
    in.fill_uniform(rng, 0.0F, 1.0F);
    Tensor out(Shape{batch, 32, 32, 32});
    for (auto _ : state) {
        conv.forward(in, out, nullptr);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * batch);
}
BENCHMARK(BM_Conv2d)->Arg(1)->Arg(8);

void BM_MaxPool(benchmark::State& state) {
    const auto batch = static_cast<std::size_t>(state.range(0));
    nn::MaxPool pool(2);
    Rng rng(3);
    Tensor in(Shape{batch, 32, 32, 32});
    in.fill_uniform(rng, 0.0F, 1.0F);
    Tensor out(Shape{batch, 32, 16, 16});
    for (auto _ : state) {
        pool.forward(in, out, nullptr);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * batch);
}
BENCHMARK(BM_MaxPool)->Arg(8)->Arg(64);

void BM_ModelForward(benchmark::State& state, const char* model_name) {
    const nn::Model model = nn::build_model(nn::zoo::by_name(model_name), 7);
    Rng rng(4);
    Tensor in(model.input_shape(8));
    in.fill_uniform(rng, 0.0F, 1.0F);
    for (auto _ : state) {
        const Tensor out = model.forward(in);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8);
}
BENCHMARK_CAPTURE(BM_ModelForward, simple, "simple");
BENCHMARK_CAPTURE(BM_ModelForward, mnist_small, "mnist-small");
BENCHMARK_CAPTURE(BM_ModelForward, mnist_cnn, "mnist-cnn");

/// One seeded model build: layer construction plus weight init, which for
/// these two is almost all Box-Muller draws through `Tensor::fill_normal`.
void BM_BuildModel(benchmark::State& state, const char* model_name) {
    const nn::ModelSpec spec = nn::zoo::by_name(model_name);
    for (auto _ : state) {
        const nn::Model model = nn::build_model(spec, 7);
        benchmark::DoNotOptimize(&model);
    }
}
BENCHMARK_CAPTURE(BM_BuildModel, mnist_small, "mnist-small")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_BuildModel, mnist_cnn, "mnist-cnn")->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
