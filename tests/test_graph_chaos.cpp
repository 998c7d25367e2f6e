// Graph-planner chaos: seeded storms of random DAGs on randomly perturbed
// device testbeds, every plan replayed through the independent verifier.
//
//   MW_CHAOS_SEED=7 ./tests/test_graph_chaos
//   MW_GRAPH_ARTIFACT_DIR=/tmp ./tests/test_graph_chaos
//
// MW_CHAOS_SEED picks the storm's root seed (default 42). When a schedule
// fails verification the offending .mws file is written to
// MW_GRAPH_ARTIFACT_DIR (default: the working directory) so CI can upload it
// as an artifact and `mw-graph-verify` can replay it offline.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "device/params.hpp"
#include "graph/dag.hpp"
#include "graph/planner.hpp"
#include "graph/schedule.hpp"
#include "graph/synth.hpp"
#include "graph/verify.hpp"

namespace {

using namespace mw;

std::uint64_t chaos_seed() {
    if (const char* env = std::getenv("MW_CHAOS_SEED")) {
        return std::strtoull(env, nullptr, 10);
    }
    return 42;
}

std::string artifact_dir() {
    if (const char* env = std::getenv("MW_GRAPH_ARTIFACT_DIR")) return env;
    return ".";
}

/// Verify, and on failure dump the schedule for offline replay before
/// failing the test with the artifact path in the message.
void verify_or_dump(const graph::Graph& g, const graph::Schedule& s,
                    const std::string& label) {
    const auto violations = graph::verify_schedule(g, s);
    if (violations.empty()) return;
    const std::string path = artifact_dir() + "/chaos-violation-" + label + ".mws";
    s.save_file(path, g);
    FAIL() << "schedule `" << label << "` failed verification (dumped to " << path
           << " for `mw-graph-verify`):\n"
           << graph::format_violations(violations);
}

/// A random 1-3 device testbed with bandwidths, latencies and scratchpads
/// perturbed by up to 4x in either direction.
std::vector<graph::PlannerDevice> random_testbed(Rng& rng) {
    std::vector<graph::PlannerDevice> all(3);
    all[0].params = device::i7_8700_params();
    all[1].params = device::uhd630_params();
    all[2].params = device::gtx1080ti_params();
    std::vector<graph::PlannerDevice> picked;
    for (auto& device : all) {
        if (!picked.empty() && !rng.bernoulli(0.75)) continue;
        device.params.mem_bandwidth_gbps *= rng.uniform(0.25, 4.0);
        device.params.peak_gflops *= rng.uniform(0.25, 4.0);
        device.params.scratchpad_bytes *= rng.uniform(0.5, 4.0);
        if (device.params.over_pcie) {
            device.params.pcie_bandwidth_gbps *= rng.uniform(0.25, 4.0);
            device.params.pcie_latency_s *= rng.uniform(0.25, 4.0);
        }
        device.free_at = rng.bernoulli(0.5) ? rng.uniform(0.0, 0.01) : 0.0;
        picked.push_back(device);
    }
    return picked;
}

/// One storm: 60 random DAGs, each planned (DAG and monolithic) on its own
/// random testbed and replayed through the verifier.
void plan_storm(std::uint64_t seed) {
    SCOPED_TRACE("MW_CHAOS_SEED=" + std::to_string(seed));
    Rng rng(seed);
    const graph::GraphPlanner planner;

    std::size_t planned = 0;
    std::size_t skipped = 0;
    for (std::size_t round = 0; round < 60; ++round) {
        graph::SynthConfig cfg;
        cfg.stages = 1 + static_cast<std::size_t>(rng.below(8));
        cfg.branches = 1 + static_cast<std::size_t>(rng.below(4));
        cfg.tensor_mb = rng.uniform(0.1, 6.0);
        cfg.flops_per_byte = rng.uniform(0.05, 64.0);
        graph::Graph g = graph::random_dag(rng, cfg);
        g.set_name("chaos-" + std::to_string(seed) + "-" + std::to_string(round));

        const auto devices = random_testbed(rng);
        const auto objective =
            rng.bernoulli(0.5) ? graph::Objective::kMakespan : graph::Objective::kEnergy;
        try {
            const graph::Schedule dag = planner.plan(g, devices, objective);
            const graph::Schedule mono = planner.plan_monolithic(g, devices, objective);
            verify_or_dump(g, dag, g.name() + "-dag");
            verify_or_dump(g, mono, g.name() + "-mono");
            ++planned;
        } catch (const InvalidArgument&) {
            ++skipped;  // a shrunken scratchpad can make an operator unhostable
        }
    }
    // The storm must actually exercise the planner, not just skip.
    EXPECT_GT(planned, 30U) << "skipped " << skipped << " infeasible testbeds";
}

TEST(GraphChaos, RandomDagsOnPerturbedTestbedsAlwaysVerify) { plan_storm(chaos_seed()); }

TEST(GraphChaos, StoresToUnplacedConsumersCoverAFasterLink) {
    // Regression: the planner priced a store to a not-yet-placed consumer at
    // the link rate. These storms perturb a device's PCIe link above its own
    // memory bandwidth; the consumer then landed on the same device, and the
    // verifier's local-rate minimum exceeded the planned store phase.
    plan_storm(5);
    plan_storm(6);
}

TEST(GraphChaos, RoundTripThroughTextFormatIsLossless) {
    const std::uint64_t seed = chaos_seed();
    SCOPED_TRACE("MW_CHAOS_SEED=" + std::to_string(seed));
    Rng rng(seed ^ 0x5ca1ab1eULL);
    const graph::GraphPlanner planner;

    for (std::size_t round = 0; round < 20; ++round) {
        graph::SynthConfig cfg;
        cfg.tensor_mb = rng.uniform(0.1, 4.0);
        cfg.flops_per_byte = rng.uniform(0.1, 16.0);
        graph::Graph g = graph::random_dag(rng, cfg);
        g.set_name("chaos-rt-" + std::to_string(round));
        const auto devices = random_testbed(rng);

        graph::Schedule s;
        try {
            s = planner.plan(g, devices, graph::Objective::kMakespan);
        } catch (const InvalidArgument&) {
            continue;
        }
        std::stringstream buffer;
        s.save(buffer, g);
        const auto [g2, s2] = graph::Schedule::load(buffer);
        EXPECT_EQ(g2.fingerprint(), g.fingerprint());
        EXPECT_EQ(s2.makespan_s(), s.makespan_s());
        verify_or_dump(g2, s2, g.name());
    }
}

TEST(GraphChaos, CheatingMutationsAreAlwaysRejected) {
    const std::uint64_t seed = chaos_seed();
    SCOPED_TRACE("MW_CHAOS_SEED=" + std::to_string(seed));
    Rng rng(seed ^ 0xbadc0deULL);
    const graph::GraphPlanner planner;

    std::size_t mutated = 0;
    for (std::size_t round = 0; round < 40; ++round) {
        graph::SynthConfig cfg;
        cfg.tensor_mb = rng.uniform(0.5, 4.0);
        cfg.flops_per_byte = rng.uniform(0.1, 8.0);
        graph::Graph g = graph::random_dag(rng, cfg);
        g.set_name("chaos-mut-" + std::to_string(round));
        const auto devices = random_testbed(rng);

        graph::Schedule s;
        try {
            s = planner.plan(g, devices, graph::Objective::kMakespan);
        } catch (const InvalidArgument&) {
            continue;
        }
        // Halve a random positive load phase: the planner prices loads at
        // the exact bandwidth minimum (producers are already placed), so any
        // shortening is a physical cheat. Store phases can be legitimately
        // overpriced (consumers unplaced at pricing time), so they are not
        // tight and are left alone here.
        std::vector<std::size_t> candidates;
        for (std::size_t i = 0; i < s.steps.size(); ++i) {
            if (s.steps[i].load_s > 0.0) candidates.push_back(i);
        }
        if (candidates.empty()) continue;
        const std::size_t index = candidates[rng.below(candidates.size())];
        graph::Schedule bad = s;
        bad.steps[index].load_s *= 0.5;
        const auto violations = graph::verify_schedule(g, bad);
        EXPECT_FALSE(violations.empty())
            << "halving step " << index << " load phase went undetected for `" << g.name()
            << "`";
        ++mutated;
    }
    EXPECT_GT(mutated, 20U);
}

}  // namespace
