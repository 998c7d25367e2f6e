// Tests of the benchmark's own arithmetic and generators: percentiles and
// the p99 sample rule, goodput over a ladder, seeded streams, and the
// generator-lag check.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.hpp"
#include "fault/fault.hpp"
#include "pacer.hpp"
#include "stats.hpp"
#include "traffic.hpp"

namespace {

std::vector<double> one_to(int n) {
    std::vector<double> v;
    for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
    return v;
}

TEST(Percentile, NearestRankOnSyntheticLatencies) {
    EXPECT_DOUBLE_EQ(pb::percentile(one_to(100), 0.50), 50.0);
    EXPECT_DOUBLE_EQ(pb::percentile(one_to(100), 0.99), 99.0);
    EXPECT_DOUBLE_EQ(pb::percentile(one_to(100), 1.00), 100.0);
    EXPECT_DOUBLE_EQ(pb::percentile(one_to(100), 0.00), 1.0);
    EXPECT_DOUBLE_EQ(pb::percentile(one_to(1000), 0.99), 990.0);
    EXPECT_DOUBLE_EQ(pb::percentile({7.0}, 0.99), 7.0);
    EXPECT_TRUE(std::isnan(pb::percentile({}, 0.5)));
}

TEST(Percentile, TailNeedsTenSamplesBeyondIt) {
    EXPECT_FALSE(pb::supports_percentile(999, 0.99));
    EXPECT_TRUE(pb::supports_percentile(1000, 0.99));
    EXPECT_FALSE(pb::supports_percentile(99, 0.90));
    EXPECT_TRUE(pb::supports_percentile(100, 0.90));
    EXPECT_TRUE(pb::supports_percentile(20, 0.50));
    EXPECT_FALSE(pb::supports_percentile(0, 0.50));
}

TEST(Percentile, WindowsOutvoteAStallInOnePartOfTheRun) {
    // 5000 latencies of 1 ms, with the second fifth stalled at 50 ms.
    std::vector<double> values(5000, 1.0);
    for (std::size_t i = 1000; i < 2000; ++i) values[i] = 50.0;
    EXPECT_DOUBLE_EQ(pb::percentile(values, 0.99), 50.0);
    EXPECT_DOUBLE_EQ(pb::windowed_percentile(values, 0.99, 5), 1.0);
    EXPECT_DOUBLE_EQ(pb::windowed_percentile(values, 0.5, 5), 1.0);
    // Too few samples for five p99 windows: fall back to fewer.
    EXPECT_DOUBLE_EQ(pb::windowed_percentile(std::vector<double>(1500, 2.0), 0.99, 5), 2.0);
    EXPECT_TRUE(std::isnan(pb::windowed_percentile({}, 0.5, 5)));
}

TEST(Goodput, HighestPassingRateBelowTheFirstFailure) {
    using pb::LadderStep;
    // 1% of sent may miss: 10 of 1000 passes, 11 fails.
    EXPECT_TRUE(pb::step_passes({100.0, 1000, 10, false}));
    EXPECT_FALSE(pb::step_passes({100.0, 1000, 11, false}));
    EXPECT_FALSE(pb::step_passes({100.0, 1000, 0, true}));  // growing backlog
    EXPECT_FALSE(pb::step_passes({100.0, 0, 0, false}));    // nothing sent

    const std::vector<LadderStep> steps{
        {300.0, 1000, 500, false}, {100.0, 1000, 0, false}, {200.0, 1000, 5, false}};
    EXPECT_DOUBLE_EQ(pb::goodput(steps), 200.0);
    // A failure below a pass caps goodput.
    const std::vector<LadderStep> dip{
        {100.0, 1000, 0, false}, {150.0, 1000, 0, true}, {200.0, 1000, 0, false}};
    EXPECT_DOUBLE_EQ(pb::goodput(dip), 100.0);
    EXPECT_DOUBLE_EQ(pb::goodput({{100.0, 1000, 50, false}}), 0.0);
}

TEST(Goodput, BisectionFindsTheCapacityRung) {
    const double capacity = 1000.0;
    std::size_t probes = 0;
    const auto steps = pb::bisect_ladder(500.0, 1.04, 24, 1, [&](double rate) {
        ++probes;
        return pb::LadderStep{rate, 1000, rate <= capacity ? 0U : 1000U, false};
    });
    const double found = pb::goodput(steps);
    EXPECT_LE(found, capacity);
    EXPECT_GT(found * 1.04, capacity);  // the next rung up would exceed it
    EXPECT_LE(probes, 5U);              // ceil(log2(24 + 1))
    EXPECT_EQ(steps.size(), probes);
    EXPECT_DOUBLE_EQ(pb::ladder_rate(500.0, 1.04, 0), 500.0);
}

TEST(Goodput, AFailingRungIsProbedAgain) {
    // Every rung's first probe fails (a stall); the retry shows the truth.
    const double capacity = 1000.0;
    std::map<double, int> probes;
    const auto steps = pb::bisect_ladder(500.0, 1.04, 24, 3, [&](double rate) {
        const bool stalled = probes[rate]++ == 0;
        return pb::LadderStep{rate, 1000, !stalled && rate <= capacity ? 0U : 1000U, false};
    });
    const double found = pb::goodput(steps);
    EXPECT_LE(found, capacity);
    EXPECT_GT(found * 1.04, capacity);
    for (const auto& [rate, count] : probes) {
        EXPECT_EQ(count, rate <= capacity ? 2 : 3) << rate;  // a pass stops the retries
    }
    // Without retries the stalls cap goodput at zero.
    probes.clear();
    EXPECT_DOUBLE_EQ(pb::goodput(pb::bisect_ladder(500.0, 1.04, 24, 1, [&](double rate) {
                         const bool stalled = probes[rate]++ == 0;
                         return pb::LadderStep{rate, 1000, stalled ? 1000U : 0U, false};
                     })),
                     0.0);
}

pb::RequestShape mixed_shape() {
    return {.model_count = 2, .min_samples = 1, .max_samples = 32, .log_uniform_samples = true,
            .slo_min_s = 0.02, .slo_max_s = 0.1, .pool_rows = 128, .hot_graphs = 5,
            .repeat_share = 0.7};
}

TEST(Traffic, SameSeedSameStream) {
    const auto a = pb::poisson_stream(mixed_shape(), 500.0, 2.0, 42);
    const auto b = pb::poisson_stream(mixed_shape(), 500.0, 2.0, 42);
    const auto c = pb::poisson_stream(mixed_shape(), 500.0, 2.0, 43);
    ASSERT_GT(a.size(), 800U);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    const auto burst_a = pb::burst_stream(mixed_shape(), 2000.0, 0.25, 0.25, 2.0, 7);
    const auto burst_b = pb::burst_stream(mixed_shape(), 2000.0, 0.25, 0.25, 2.0, 7);
    EXPECT_EQ(burst_a, burst_b);
    EXPECT_NE(pb::phase_seed(1, 1), pb::phase_seed(1, 2));
    EXPECT_NE(pb::phase_seed(1, 1), pb::phase_seed(2, 1));
}

TEST(Traffic, StreamsStayInsideTheirShape) {
    const auto stream = pb::poisson_stream(mixed_shape(), 500.0, 2.0, 9);
    std::uint32_t next_fresh = 5;
    std::size_t repeats = 0;
    double last = 0.0;
    for (const pb::RequestSpec& r : stream) {
        EXPECT_GE(r.at_s, last);
        last = r.at_s;
        EXPECT_GE(r.samples, 1U);
        EXPECT_LE(r.samples, 32U);
        EXPECT_LE(r.offset + r.samples, 128U);
        EXPECT_LT(r.model, 2U);
        EXPECT_GE(r.slo_s, 0.02);
        EXPECT_LE(r.slo_s, 0.1);
        if (r.graph < 5) {
            ++repeats;
        } else {
            EXPECT_EQ(r.graph, next_fresh++);  // fresh graphs are numbered in send order
        }
    }
    const double share = static_cast<double>(repeats) / static_cast<double>(stream.size());
    EXPECT_NEAR(share, 0.7, 0.05);
    // Bursts: nothing arrives in the off windows.
    for (const pb::RequestSpec& r : pb::burst_stream(mixed_shape(), 2000.0, 0.25, 0.25, 2.0, 3)) {
        EXPECT_LT(std::fmod(r.at_s, 0.5), 0.25);
    }
}

TEST(Traffic, SameSeedSameGraphs) {
    EXPECT_EQ(pb::fresh_graph(5, 11).fingerprint(), pb::fresh_graph(5, 11).fingerprint());
    EXPECT_NE(pb::fresh_graph(5, 11).fingerprint(), pb::fresh_graph(5, 12).fingerprint());
    EXPECT_NE(pb::fresh_graph(5, 11).fingerprint(), pb::fresh_graph(6, 11).fingerprint());
}

/// Which of `calls` consultations of one device's fault stream throw.
std::vector<bool> fault_pattern(std::uint64_t seed, int calls) {
    const mw::ManualClock clock;
    mw::fault::FaultInjector injector({.transient_failure_p = 0.2, .seed = seed}, clock);
    std::vector<bool> thrown;
    for (int i = 0; i < calls; ++i) {
        try {
            injector.before_execute("uhd630", 0.0, 0);
            thrown.push_back(false);
        } catch (const std::exception&) {
            thrown.push_back(true);
        }
    }
    return thrown;
}

TEST(Traffic, SameSeedSameFaults) {
    EXPECT_EQ(fault_pattern(17, 200), fault_pattern(17, 200));
    EXPECT_NE(fault_pattern(17, 200), fault_pattern(18, 200));
}

TEST(GeneratorLag, PassesOnScheduleAndFailsOnAForcedStall) {
    const auto send = [](bool stall) {
        const pb::Pacer pacer;
        std::vector<double> lags;
        for (int i = 0; i < 200; ++i) {
            if (stall && i == 100) mw::sleep_for_seconds(0.05);
            lags.push_back(pacer.wait_until(i * 0.0005));
        }
        return lags;
    };
    const double limit_s = 0.005;
    // A loaded host can preempt the pacer for a few milliseconds; the forced
    // stall is ten times the limit.
    const pb::LagReport stalled = pb::check_lag(send(true), limit_s);
    EXPECT_FALSE(stalled.ok);
    EXPECT_GE(stalled.max_s, 0.04);
    const pb::LagReport steady = pb::check_lag(send(false), limit_s);
    EXPECT_TRUE(steady.ok) << "p99 lag " << steady.p99_s;
    EXPECT_TRUE(pb::check_lag({}, limit_s).ok);
}

}  // namespace
