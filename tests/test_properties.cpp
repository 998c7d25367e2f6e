// Property-style parameterized suites (TEST_P): invariants that must hold
// for EVERY zoo architecture, every device, every activation, every policy
// and every seed — not just the hand-picked cases of the unit tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/stats.hpp"
#include "device/exec_model.hpp"
#include "device/registry.hpp"
#include "nn/activation.hpp"
#include "nn/model_builder.hpp"
#include "nn/zoo.hpp"
#include "obs/metrics.hpp"
#include "sched/features.hpp"
#include "sched/measurement_harness.hpp"

namespace {

using namespace mw;

// ---------------------------------------------------------------------------
// Every zoo architecture: structural and numerical invariants.
// ---------------------------------------------------------------------------

class ZooModelProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(ZooModelProperty, ForwardIsDeterministic) {
    const nn::Model model = nn::build_model(nn::zoo::by_name(GetParam()), 7);
    Rng rng(1);
    Tensor x(model.input_shape(2));
    x.fill_uniform(rng, 0.0F, 1.0F);
    const Tensor a = model.forward(x);
    const Tensor b = model.forward(x);
    EXPECT_EQ(a.max_abs_diff(b), 0.0F);
}

TEST_P(ZooModelProperty, OutputsAreProbabilities) {
    const nn::Model model = nn::build_model(nn::zoo::by_name(GetParam()), 7);
    Rng rng(2);
    Tensor x(model.input_shape(3));
    x.fill_uniform(rng, 0.0F, 1.0F);
    const Tensor out = model.forward(x);
    for (std::size_t r = 0; r < out.shape()[0]; ++r) {
        float sum = 0.0F;
        for (std::size_t c = 0; c < out.shape()[1]; ++c) {
            EXPECT_GE(out.at(r, c), 0.0F);
            EXPECT_LE(out.at(r, c), 1.0F);
            sum += out.at(r, c);
        }
        EXPECT_NEAR(sum, 1.0F, 1e-4F);
    }
}

// Cost, descriptor and feature cases read only the architecture, so they
// build weightless models; the forward-pass cases above need seeded weights.
TEST_P(ZooModelProperty, CostScalesLinearlyWithBatch) {
    const nn::Model model = nn::build_model(nn::zoo::by_name(GetParam()));
    const auto c1 = model.cost(1);
    const auto c16 = model.cost(16);
    EXPECT_GT(c1.total.flops, 0.0);
    EXPECT_NEAR(c16.total.flops, 16.0 * c1.total.flops, 1e-6 * c16.total.flops);
    EXPECT_NEAR(c16.total.work_items, 16.0 * c1.total.work_items,
                1e-6 * c16.total.work_items);
    // Weight bytes do not scale with batch.
    EXPECT_EQ(c16.total.bytes_weights, c1.total.bytes_weights);
}

TEST_P(ZooModelProperty, DescMatchesSpecFamily) {
    const nn::ModelSpec spec = nn::zoo::by_name(GetParam());
    const nn::Model model = nn::build_model(spec);
    EXPECT_EQ(model.desc().is_cnn, spec.is_cnn());
    EXPECT_GT(model.desc().total_neurons, 0U);
    EXPECT_GT(model.desc().depth, 0U);
    if (!spec.is_cnn()) {
        EXPECT_EQ(model.desc().vgg_blocks, 0U);
        EXPECT_EQ(model.desc().depth, spec.ffnn().hidden.size() + 1);
    } else {
        EXPECT_EQ(model.desc().vgg_blocks, spec.cnn().blocks.size());
    }
}

TEST_P(ZooModelProperty, FeatureExtractionIsFinite) {
    const nn::Model model = nn::build_model(nn::zoo::by_name(GetParam()));
    for (const auto policy :
         {sched::Policy::kMaxThroughput, sched::Policy::kMinLatency,
          sched::Policy::kMinEnergy}) {
        const auto f = sched::extract_features(policy, model.desc(), 1024, true);
        for (const double v : f) {
            EXPECT_TRUE(std::isfinite(v));
            EXPECT_GE(v, 0.0);
        }
    }
}

std::vector<std::string> zoo_names() {
    std::vector<std::string> names;
    for (const auto& spec : nn::zoo::all_models()) names.push_back(spec.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, ZooModelProperty,
                         ::testing::ValuesIn(zoo_names()),
                         [](const auto& info) {
                             std::string name = info.param;
                             for (auto& c : name) {
                                 if (c == '-') c = '_';
                             }
                             return name;
                         });

// ---------------------------------------------------------------------------
// Every device x representative models: execution-model invariants.
// ---------------------------------------------------------------------------

struct DeviceCase {
    const char* device;
    const char* model;
};

/// Devices price a model analytically (profile/measure never run a forward
/// pass), so the fixture deploys a weightless model.
class DeviceModelProperty : public ::testing::TestWithParam<DeviceCase> {
protected:
    DeviceModelProperty() : registry_(device::DeviceRegistry::standard_testbed()) {
        registry_.load_model_everywhere(
            std::make_shared<nn::Model>(nn::build_model(nn::zoo::by_name(GetParam().model))));
    }
    device::DeviceRegistry registry_;
};

TEST_P(DeviceModelProperty, ThroughputNonDecreasingInBatch) {
    sched::MeasurementHarness harness(registry_);
    double prev = 0.0;
    for (std::size_t batch = 2; batch <= (64U << 10); batch *= 4) {
        const auto m = harness.measure(GetParam().model, GetParam().device, batch,
                                       sched::GpuState::kWarm);
        EXPECT_GE(m.throughput_bps(), prev * 0.999) << batch;
        prev = m.throughput_bps();
    }
}

TEST_P(DeviceModelProperty, IdleStartNeverFasterOrCheaper) {
    sched::MeasurementHarness harness(registry_);
    for (const std::size_t batch : {8U, 1024U, 65536U}) {
        const auto warm =
            harness.measure(GetParam().model, GetParam().device, batch, sched::GpuState::kWarm);
        const auto idle =
            harness.measure(GetParam().model, GetParam().device, batch, sched::GpuState::kIdle);
        EXPECT_GE(idle.latency_s(), warm.latency_s() * 0.999) << batch;
        EXPECT_GE(idle.energy_j, warm.energy_j * 0.999) << batch;
    }
}

TEST_P(DeviceModelProperty, MeasurementsArePositiveAndConsistent) {
    sched::MeasurementHarness harness(registry_);
    const auto m =
        harness.measure(GetParam().model, GetParam().device, 256, sched::GpuState::kWarm);
    EXPECT_GT(m.latency_s(), 0.0);
    EXPECT_GT(m.energy_j, 0.0);
    EXPECT_GT(m.avg_power_w(), 0.0);
    EXPECT_NEAR(m.breakdown.total_s(), m.latency_s(), 1e-12);
    EXPECT_EQ(m.batch, 256U);
    EXPECT_EQ(m.device_name, GetParam().device);
}

TEST_P(DeviceModelProperty, ThrottleSlowsProportionally) {
    device::Device& dev = registry_.at(GetParam().device);
    dev.force_warm();
    const auto before = dev.profile(GetParam().model, 4096, 0.0);
    dev.set_throttle(4.0);
    dev.force_warm();
    const auto after = dev.profile(GetParam().model, 4096, before.end_time + 1000.0);
    EXPECT_GT(after.latency_s(), before.latency_s() * 1.5);
}

TEST_P(DeviceModelProperty, ProfileIsDeterministicWithoutNoise) {
    sched::MeasurementHarness harness(registry_);
    const auto a =
        harness.measure(GetParam().model, GetParam().device, 512, sched::GpuState::kWarm);
    const auto b =
        harness.measure(GetParam().model, GetParam().device, 512, sched::GpuState::kWarm);
    // end_time = start + duration is computed at different timeline
    // magnitudes, so equality holds only to float-cancellation precision.
    EXPECT_NEAR(a.latency_s(), b.latency_s(), a.latency_s() * 1e-6);
    EXPECT_NEAR(a.energy_j, b.energy_j, a.energy_j * 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DeviceModelProperty,
    ::testing::Values(DeviceCase{"i7-8700", "simple"}, DeviceCase{"i7-8700", "mnist-deep"},
                      DeviceCase{"uhd630", "mnist-small"}, DeviceCase{"uhd630", "cifar-10"},
                      DeviceCase{"gtx1080ti", "simple"}, DeviceCase{"gtx1080ti", "mnist-cnn"},
                      DeviceCase{"gtx1080ti", "mnist-deep"}),
    [](const auto& info) {
        std::string name = std::string(info.param.device) + "_" + info.param.model;
        for (auto& c : name) {
            if (c == '-') c = '_';
        }
        return name;
    });

// ---------------------------------------------------------------------------
// Activations: gradient identities checked by finite differences.
// ---------------------------------------------------------------------------

class ActivationProperty : public ::testing::TestWithParam<nn::Activation> {};

TEST_P(ActivationProperty, GradMatchesFiniteDifference) {
    const nn::Activation act = GetParam();
    for (const float x : {-2.0F, -0.5F, 0.25F, 1.5F}) {
        Tensor t(Shape{1});
        const float eps = 1e-3F;
        t.at(0) = x + eps;
        apply_activation(act, t);
        const float up = t.at(0);
        t.at(0) = x - eps;
        apply_activation(act, t);
        const float down = t.at(0);
        const float numeric = (up - down) / (2.0F * eps);

        t.at(0) = x;
        apply_activation(act, t);
        const float analytic = nn::activation_grad_from_output(act, t.at(0));
        // relu is non-differentiable at 0; the test points avoid it.
        EXPECT_NEAR(analytic, numeric, 5e-3F) << "x=" << x;
    }
}

TEST_P(ActivationProperty, NameRoundTrips) {
    EXPECT_EQ(nn::activation_from_name(nn::activation_name(GetParam())), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Pointwise, ActivationProperty,
                         ::testing::Values(nn::Activation::kIdentity, nn::Activation::kRelu,
                                           nn::Activation::kTanh, nn::Activation::kSigmoid),
                         [](const auto& info) { return nn::activation_name(info.param); });

// ---------------------------------------------------------------------------
// Work-group geometry: every device has an interior optimum.
// ---------------------------------------------------------------------------

class WorkGroupProperty
    : public ::testing::TestWithParam<device::DeviceParams> {};

TEST_P(WorkGroupProperty, EfficiencyBoundedAndHasInteriorOptimum) {
    const auto& params = GetParam();
    double best_eff = 0.0;
    std::size_t best_wg = 0;
    std::vector<std::size_t> sweep;
    for (std::size_t wg = 32; wg <= 16384; wg *= 2) sweep.push_back(wg);
    for (const std::size_t wg : sweep) {
        const double eff =
            device::work_group_efficiency(params, static_cast<double>(wg), 1 << 20);
        EXPECT_GT(eff, 0.0);
        EXPECT_LE(eff, 1.0);
        if (eff > best_eff) {
            best_eff = eff;
            best_wg = wg;
        }
    }
    // The optimum is interior: both extremes are strictly worse.
    EXPECT_NE(best_wg, sweep.front());
    EXPECT_NE(best_wg, sweep.back());
}

INSTANTIATE_TEST_SUITE_P(Presets, WorkGroupProperty,
                         ::testing::Values(device::i7_8700_params(), device::uhd630_params(),
                                           device::gtx1080ti_params()),
                         [](const auto& info) {
                             std::string name = info.param.name;
                             for (auto& c : name) {
                                 if (c == '-') c = '_';
                             }
                             return name;
                         });

// ---------------------------------------------------------------------------
// RNG: statistical sanity across seeds.
// ---------------------------------------------------------------------------

class RngProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngProperty, UniformMomentsAndBounds) {
    Rng rng(GetParam());
    OnlineStats stats;
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        stats.add(u);
    }
    EXPECT_NEAR(stats.mean(), 0.5, 0.02);
    EXPECT_NEAR(stats.stddev(), std::sqrt(1.0 / 12.0), 0.02);
}

TEST_P(RngProperty, BelowStaysInRange) {
    Rng rng(GetParam());
    for (int i = 0; i < 2000; ++i) {
        EXPECT_LT(rng.below(17), 17U);
        const auto v = rng.range(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngProperty,
                         ::testing::Values(0ULL, 1ULL, 42ULL, 0xdeadbeefULL,
                                           0xffffffffffffffffULL));

// ---------------------------------------------------------------------------
// Policies: best_device agrees with per-policy scores on random rows.
// ---------------------------------------------------------------------------

class PolicyProperty : public ::testing::TestWithParam<sched::Policy> {};

TEST_P(PolicyProperty, BestDeviceMaximisesScore) {
    Rng rng(9);
    for (int trial = 0; trial < 50; ++trial) {
        std::vector<sched::SweepPoint> rows(3);
        const char* names[] = {"a", "b", "c"};
        for (std::size_t d = 0; d < 3; ++d) {
            rows[d].device_name = names[d];
            rows[d].throughput_bps = rng.uniform(1e6, 1e10);
            rows[d].latency_s = rng.uniform(1e-5, 10.0);
            rows[d].energy_j = rng.uniform(1e-3, 1e3);
        }
        const std::string best = sched::best_device(rows, GetParam());
        for (const auto& row : rows) {
            switch (GetParam()) {
                case sched::Policy::kMaxThroughput:
                    EXPECT_LE(row.throughput_bps,
                              rows[best[0] - 'a'].throughput_bps + 1e-9);
                    break;
                case sched::Policy::kMinLatency:
                    EXPECT_GE(row.latency_s, rows[best[0] - 'a'].latency_s - 1e-12);
                    break;
                case sched::Policy::kMinEnergy:
                    EXPECT_GE(row.energy_j, rows[best[0] - 'a'].energy_j - 1e-12);
                    break;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(All, PolicyProperty,
                         ::testing::Values(sched::Policy::kMaxThroughput,
                                           sched::Policy::kMinLatency,
                                           sched::Policy::kMinEnergy),
                         [](const auto& info) { return sched::policy_name(info.param); });

// ---------------------------------------------------------------------------
// obs::LogHistogram: percentile estimates vs the exact sample percentile,
// on randomized inputs.
// ---------------------------------------------------------------------------

class HistogramProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HistogramProperty, PercentileMonotoneAndWithinOneBucketOfExact) {
    Rng rng(GetParam());
    const std::size_t n = 200 + rng.below(800);
    obs::LogHistogram hist;
    std::vector<double> samples;
    samples.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        // Log-uniform over [10 us, 10 s], inside the histogram's range.
        const double v = std::pow(10.0, rng.uniform(-5.0, 1.0));
        samples.push_back(v);
        hist.add(v);
    }
    std::sort(samples.begin(), samples.end());

    // The estimate is the geometric midpoint of the bucket holding the
    // rank-th smallest sample, so it sits within half a log bucket of the
    // exact value; one full bucket width (x10^(1/20)) bounds it comfortably.
    const double bucket_factor = std::pow(10.0, 1.0 / 20.0);
    double prev = 0.0;
    for (double p = 1.0; p <= 100.0; p += 0.5) {
        const double est = hist.percentile(p);
        ASSERT_FALSE(std::isnan(est));
        EXPECT_GE(est, prev) << "percentile not monotone in p at p=" << p;
        prev = est;
        const auto rank = std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   std::ceil(p / 100.0 * static_cast<double>(n))));
        const double exact = samples[std::min(rank, n) - 1];
        EXPECT_LE(est, exact * bucket_factor)
            << "p" << p << " overshoots exact " << exact;
        EXPECT_GE(est * bucket_factor, exact)
            << "p" << p << " undershoots exact " << exact;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramProperty,
                         ::testing::Values(11U, 23U, 47U, 81U, 99U));

}  // namespace
