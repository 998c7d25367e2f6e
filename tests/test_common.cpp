// Unit tests for the foundation library: RNG, stats, thread pool, CSV,
// tables, units and the formatting shim.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>
#include <thread>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"

namespace {

using namespace mw;

TEST(Rng, DeterministicAcrossInstances) {
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i) {
        if (a() == b()) ++equal;
    }
    EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, BelowIsUnbiasedish) {
    Rng rng(99);
    std::vector<int> counts(5, 0);
    constexpr int kDraws = 50000;
    for (int i = 0; i < kDraws; ++i) ++counts[rng.below(5)];
    for (const int c : counts) {
        EXPECT_NEAR(static_cast<double>(c) / kDraws, 0.2, 0.02);
    }
}

TEST(Rng, BelowRejectsZero) { EXPECT_THROW(Rng(1).below(0), InvalidArgument); }

TEST(Rng, NormalMoments) {
    Rng rng(5);
    OnlineStats stats;
    for (int i = 0; i < 50000; ++i) stats.add(rng.normal(3.0, 2.0));
    EXPECT_NEAR(stats.mean(), 3.0, 0.05);
    EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, LognormalFactorMedianNearOne) {
    Rng rng(11);
    std::vector<double> xs;
    for (int i = 0; i < 20001; ++i) xs.push_back(rng.lognormal_factor(0.2));
    EXPECT_NEAR(median(xs), 1.0, 0.02);
    EXPECT_EQ(rng.lognormal_factor(0.0), 1.0);
}

TEST(Rng, ExponentialMean) {
    Rng rng(13);
    OnlineStats stats;
    for (int i = 0; i < 50000; ++i) stats.add(rng.exponential(4.0));
    EXPECT_NEAR(stats.mean(), 0.25, 0.01);
}

TEST(Rng, ShufflePermutes) {
    Rng rng(17);
    std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    auto original = v;
    rng.shuffle(v);
    EXPECT_NE(v, original);
    std::set<int> s(v.begin(), v.end());
    EXPECT_EQ(s.size(), 10U);
}

TEST(Rng, SplitIsIndependent) {
    Rng parent(21);
    Rng child = parent.split();
    EXPECT_NE(parent(), child());
}

TEST(Rng, DiscardNormalsAdvancesLikeNormal) {
    for (const std::uint64_t seed : {1ULL, 7ULL, 0x5eedULL}) {
        for (const std::size_t n : {0U, 1U, 2U, 3U, 1000U, 16384U}) {
            Rng drawn(seed);
            Rng skipped(seed);
            for (std::size_t i = 0; i < n; ++i) (void)drawn.normal();
            skipped.discard_normals(n);
            EXPECT_EQ(drawn(), skipped()) << "seed " << seed << ", n " << n;
            EXPECT_EQ(drawn.normal(), skipped.normal()) << "seed " << seed << ", n " << n;
        }
    }
}

TEST(OnlineStats, MatchesBatchFormulas) {
    Rng rng(3);
    OnlineStats stats;
    std::vector<double> xs;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(-5.0, 5.0);
        xs.push_back(x);
        stats.add(x);
    }
    EXPECT_NEAR(stats.mean(), mean(xs), 1e-9);
    EXPECT_NEAR(stats.stddev(), stddev(xs), 1e-9);
    EXPECT_EQ(stats.count(), 1000U);
}

TEST(OnlineStats, MergeEqualsSequential) {
    Rng rng(4);
    OnlineStats whole;
    OnlineStats left;
    OnlineStats right;
    for (int i = 0; i < 500; ++i) {
        const double x = rng.normal();
        whole.add(x);
        (i % 2 == 0 ? left : right).add(x);
    }
    left.merge(right);
    EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
    EXPECT_EQ(left.count(), whole.count());
    EXPECT_EQ(left.min(), whole.min());
    EXPECT_EQ(left.max(), whole.max());
}

TEST(Ewma, ConvergesToConstant) {
    Ewma ewma(0.3);
    for (int i = 0; i < 100; ++i) ewma.add(5.0);
    EXPECT_NEAR(ewma.value(), 5.0, 1e-9);
}

TEST(Ewma, FirstValueInitialises) {
    Ewma ewma(0.1);
    EXPECT_TRUE(ewma.empty());
    EXPECT_EQ(ewma.add(42.0), 42.0);
    EXPECT_FALSE(ewma.empty());
}

TEST(Ewma, RejectsBadAlpha) {
    EXPECT_THROW(Ewma(0.0), InvalidArgument);
    EXPECT_THROW(Ewma(1.5), InvalidArgument);
}

TEST(Stats, Percentiles) {
    std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    EXPECT_NEAR(percentile(xs, 0), 1.0, 1e-12);
    EXPECT_NEAR(percentile(xs, 100), 10.0, 1e-12);
    EXPECT_NEAR(median(xs), 5.5, 1e-12);
    EXPECT_NEAR(percentile(xs, 25), 3.25, 1e-12);
}

TEST(Stats, GeomeanAndArgminmax) {
    std::vector<double> xs{2.0, 8.0};
    EXPECT_NEAR(geomean(xs), 4.0, 1e-12);
    std::vector<double> ys{3.0, 1.0, 2.0};
    EXPECT_EQ(argmin(ys), 1U);
    EXPECT_EQ(argmax(ys), 0U);
    EXPECT_THROW(geomean(std::vector<double>{1.0, -1.0}), InvalidArgument);
}

TEST(ThreadPool, ParallelForCoversRange) {
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(0, 1000, [&](std::size_t i) { hits[i]++; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
    ThreadPool pool(2);
    bool touched = false;
    pool.parallel_for(5, 5, [&](std::size_t) { touched = true; });
    EXPECT_FALSE(touched);
}

TEST(ThreadPool, ExceptionsPropagate) {
    ThreadPool pool(2);
    EXPECT_THROW(
        pool.parallel_for(0, 100, [](std::size_t i) {
            if (i == 37) throw std::runtime_error("boom");
        }, 1),
        std::runtime_error);
}

TEST(ThreadPool, SubmitReturnsFuture) {
    ThreadPool pool(2);
    auto f = pool.submit([] {});
    f.get();
    SUCCEED();
}

TEST(Csv, RoundTripWithQuoting) {
    const std::string path = "/tmp/mw_test_csv.csv";
    {
        CsvWriter w(path);
        w.row({"a", "b,with,commas", "c\"quoted\""});
        w.row({"1", "2", "3"});
    }
    const auto rows = read_csv(path);
    ASSERT_EQ(rows.size(), 2U);
    EXPECT_EQ(rows[0][1], "b,with,commas");
    EXPECT_EQ(rows[0][2], "c\"quoted\"");
    EXPECT_EQ(rows[1][0], "1");
    std::filesystem::remove(path);
}

TEST(Csv, ReadMissingFileThrows) { EXPECT_THROW(read_csv("/nonexistent/x.csv"), IoError); }

TEST(Table, RendersAligned) {
    TextTable t;
    t.header({"col", "value"});
    t.row({"x", "1"});
    t.row({"longer", "22"});
    const std::string s = t.str();
    EXPECT_NE(s.find("col    | value"), std::string::npos);
    EXPECT_NE(s.find("longer | 22"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
    TextTable t;
    t.header({"a", "b"});
    EXPECT_THROW(t.row({"only-one"}), InvalidArgument);
}

TEST(Units, Throughput) {
    EXPECT_EQ(format_throughput(15e9), "15 Gbit/s");
    EXPECT_EQ(format_throughput(52.1e6), "52.1 Mbit/s");
    EXPECT_NEAR(throughput_bps(1000.0, 2.0), 4000.0, 1e-9);
    EXPECT_EQ(throughput_bps(100.0, 0.0), 0.0);
}

TEST(Units, DurationsAndEnergy) {
    EXPECT_EQ(format_duration(960.0), "16 min");
    EXPECT_EQ(format_duration(1.5e-3), "1.5 ms");
    EXPECT_EQ(format_energy(1e-3), "1 mJ");
    EXPECT_EQ(format_energy(10200.0), "10.2 kJ");
    EXPECT_EQ(format_count(262144), "256K");
    EXPECT_EQ(format_count(3), "3");
}

TEST(Format, Placeholders) {
    EXPECT_EQ(format("{} + {} = {}", 1, 2, 3), "1 + 2 = 3");
    EXPECT_EQ(format("{:.2f}", 3.14159), "3.14");
    EXPECT_EQ(format("{:.3g}", 123456.0), "1.23e+05");
    EXPECT_EQ(format("{{literal}}"), "{literal}");
    EXPECT_EQ(format("trailing {}", std::string("str")), "trailing str");
}

TEST(Error, CheckMacroThrowsWithContext) {
    try {
        MW_CHECK(1 == 2, "math broke");
        FAIL() << "expected throw";
    } catch (const InvalidArgument& e) {
        EXPECT_NE(std::string(e.what()).find("math broke"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    }
}

}  // namespace
