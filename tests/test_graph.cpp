// mw::graph suite: DAG construction, nn lowering (cost round-trip and
// bit-exact fused execution), the memory-hierarchy-aware planner (feasibility
// over random DAGs, capacity-forced splitting, the DAG-vs-monolithic win on
// memory-bound graphs, the intensity crossover), the mwsched text format,
// the independent verifier's mutation rejections, plan caching, and the
// scheduler/dispatcher/server integration path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "device/params.hpp"
#include "device/registry.hpp"
#include "graph/dag.hpp"
#include "graph/lowering.hpp"
#include "graph/planner.hpp"
#include "graph/schedule.hpp"
#include "graph/synth.hpp"
#include "graph/verify.hpp"
#include "ml/random_forest.hpp"
#include "nn/model_builder.hpp"
#include "nn/zoo.hpp"
#include "sched/dispatcher.hpp"
#include "sched/scheduler.hpp"
#include "sched/scheduler_dataset.hpp"
#include "serve/server.hpp"

namespace {

using namespace mw;

std::vector<graph::PlannerDevice> testbed_devices() {
    std::vector<graph::PlannerDevice> devices(3);
    devices[0].params = device::i7_8700_params();
    devices[1].params = device::uhd630_params();
    devices[2].params = device::gtx1080ti_params();
    return devices;
}

void expect_feasible(const graph::Graph& g, const graph::Schedule& s, const char* what) {
    const auto violations = graph::verify_schedule(g, s);
    EXPECT_TRUE(violations.empty()) << what << " schedule for `" << g.name()
                                    << "` infeasible:\n"
                                    << graph::format_violations(violations);
}

bool has_kind(const std::vector<graph::Violation>& violations, graph::ViolationKind kind) {
    for (const auto& v : violations) {
        if (v.kind == kind) return true;
    }
    return false;
}

// ---------------------------------------------------------------------------
// DAG construction
// ---------------------------------------------------------------------------

TEST(GraphDag, AddNodeRejectsForwardReference) {
    graph::Graph g;
    graph::OpNode node = graph::make_op("bad", 1024.0, 1024.0, 1.0);
    node.inputs = {3};  // no such producer yet
    EXPECT_THROW(g.add_node(std::move(node)), InvalidArgument);
}

TEST(GraphDag, ConsumersAreAscendingAndComplete) {
    const graph::Graph g = graph::make_synthetic({});
    const auto consumers = g.consumers();
    ASSERT_EQ(consumers.size(), g.size());
    std::size_t edges = 0;
    for (graph::NodeId u = 0; u < g.size(); ++u) {
        for (std::size_t i = 1; i < consumers[u].size(); ++i) {
            EXPECT_LT(consumers[u][i - 1], consumers[u][i]);
        }
        edges += consumers[u].size();
    }
    std::size_t in_edges = 0;
    for (graph::NodeId v = 0; v < g.size(); ++v) in_edges += g.node(v).inputs.size();
    EXPECT_EQ(edges, in_edges);
}

TEST(GraphDag, FingerprintTracksStructureAndFootprints) {
    graph::SynthConfig cfg;
    const graph::Graph a = graph::make_synthetic(cfg);
    const graph::Graph b = graph::make_synthetic(cfg);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    cfg.tensor_mb *= 2.0;
    const graph::Graph c = graph::make_synthetic(cfg);
    EXPECT_NE(a.fingerprint(), c.fingerprint());

    graph::Graph renamed = a;
    renamed.set_name(a.name() + "'");
    EXPECT_NE(a.fingerprint(), renamed.fingerprint());

    // Same nodes, one edge rewired: structure alone must move the key.
    const auto diamond = [](graph::NodeId join_input) {
        graph::Graph g("diamond");
        for (int i = 0; i < 3; ++i) g.add_node(graph::make_op("op", 64.0, 64.0, 1.0));
        graph::OpNode join = graph::make_op("op", 64.0, 64.0, 1.0);
        join.inputs = {join_input};
        g.add_node(std::move(join));
        return g;
    };
    EXPECT_NE(diamond(1).fingerprint(), diamond(2).fingerprint());
}

TEST(GraphDag, WorkloadFamiliesMatchTheirIntensity) {
    const graph::Graph mem = graph::make_memory_bound();
    const graph::Graph comp = graph::make_compute_bound();
    EXPECT_LT(mem.worst_case_intensity(), 1.0);
    EXPECT_GT(comp.worst_case_intensity(), 100.0);
}

// ---------------------------------------------------------------------------
// Lowering: nn::Model -> operator DAG
// ---------------------------------------------------------------------------

TEST(GraphLowering, TotalCostMatchesModelCost) {
    for (const auto& spec : {nn::zoo::simple(), nn::zoo::mnist_small(), nn::zoo::mnist_cnn()}) {
        const nn::Model model = nn::build_model(spec, 5);
        for (const std::size_t batch : {std::size_t{1}, std::size_t{16}}) {
            const graph::LoweredGraph lowered = graph::lower(model, batch);
            lowered.graph.validate();
            ASSERT_EQ(lowered.graph.size(), model.layer_count());
            const nn::LayerCost expect = model.cost(batch).total;
            const nn::LayerCost got = lowered.graph.total_cost();
            EXPECT_DOUBLE_EQ(got.flops, expect.flops) << spec.name << " batch " << batch;
            EXPECT_DOUBLE_EQ(got.bytes_in, expect.bytes_in);
            EXPECT_DOUBLE_EQ(got.bytes_out, expect.bytes_out);
            EXPECT_DOUBLE_EQ(got.bytes_weights, expect.bytes_weights);
            EXPECT_DOUBLE_EQ(got.work_items, expect.work_items);
            EXPECT_EQ(got.kernel_launches, expect.kernel_launches);
            // The chain shape: node i consumes node i-1, node 0 stages the
            // batch across the link.
            EXPECT_GT(lowered.graph.node(0).external_in_bytes, 0.0);
            for (graph::NodeId v = 1; v < lowered.graph.size(); ++v) {
                ASSERT_EQ(lowered.graph.node(v).inputs.size(), 1U);
                EXPECT_EQ(lowered.graph.node(v).inputs[0], v - 1);
            }
        }
    }
}

TEST(GraphLowering, FusedExecutionIsBitExact) {
    const nn::Model model = nn::build_model(nn::zoo::mnist_small(), 17);
    Rng rng(23);
    Tensor input(model.input_shape(3));
    input.fill_uniform(rng, 0.0F, 1.0F);
    const Tensor expect = model.forward(input);

    const std::size_t n = model.layer_count();
    std::vector<std::vector<std::vector<std::size_t>>> groupings;
    groupings.push_back({});  // all fused
    groupings.back().push_back({});
    for (std::size_t i = 0; i < n; ++i) groupings.back().back().push_back(i);
    groupings.push_back({});  // fully cut
    for (std::size_t i = 0; i < n; ++i) groupings.back().push_back({i});
    groupings.push_back({});  // split at the midpoint
    groupings.back().emplace_back();
    groupings.back().emplace_back();
    for (std::size_t i = 0; i < n; ++i) groupings.back()[i < n / 2 ? 0 : 1].push_back(i);

    for (const auto& groups : groupings) {
        const Tensor got = graph::run_grouped(model, input, groups);
        EXPECT_EQ(expect.max_abs_diff(got), 0.0F)
            << "spilling at group boundaries must not change results ("
            << groups.size() << " groups)";
    }
}

TEST(GraphLowering, RunGroupedRejectsBadGroupings) {
    const nn::Model model = nn::build_model(nn::zoo::simple(), 2);
    Tensor input(model.input_shape(1));
    EXPECT_THROW((void)graph::run_grouped(model, input, {{0}}), InvalidArgument);  // gap
    EXPECT_THROW((void)graph::run_grouped(model, input, {{1, 0}, {2}}), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Planner
// ---------------------------------------------------------------------------

TEST(GraphPlanner, PlansVerifyOnRandomDags) {
    const graph::GraphPlanner planner;
    const auto devices = testbed_devices();
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
        Rng rng(seed);
        graph::SynthConfig cfg;
        cfg.tensor_mb = 3.0;
        cfg.flops_per_byte = 4.0;
        graph::Graph g = graph::random_dag(rng, cfg);
        g.set_name("random-" + std::to_string(seed));
        for (const auto objective : {graph::Objective::kMakespan, graph::Objective::kEnergy}) {
            SCOPED_TRACE("seed " + std::to_string(seed));
            expect_feasible(g, planner.plan(g, devices, objective), "dag");
            expect_feasible(g, planner.plan_monolithic(g, devices, objective), "monolithic");
        }
    }
}

TEST(GraphPlanner, ScratchpadCapacityForcesSplitting) {
    // A 10-op chain of 5 MiB tensors cannot fuse whole into the CPU's 12 MiB
    // LLC: the planner must cut it, and every step must still verify.
    graph::SynthConfig cfg;
    cfg.stages = 10;
    cfg.branches = 1;
    cfg.tensor_mb = 5.0;
    cfg.flops_per_byte = 1.0;
    const graph::Graph g = graph::make_synthetic(cfg);
    std::vector<graph::PlannerDevice> cpu_only(1);
    cpu_only[0].params = device::i7_8700_params();

    const graph::GraphPlanner planner;
    const graph::Schedule s = planner.plan(g, cpu_only, graph::Objective::kMakespan);
    EXPECT_GT(s.steps.size(), 1U);
    expect_feasible(g, s, "cpu-only");
}

TEST(GraphPlanner, RejectsOperatorLargerThanEveryScratchpad) {
    graph::Graph g;
    g.set_name("huge");
    graph::OpNode node = graph::make_op("huge", 64.0 * 1024 * 1024 * 1024, 1024.0, 1.0);
    g.add_node(std::move(node));
    std::vector<graph::PlannerDevice> cpu_only(1);
    cpu_only[0].params = device::i7_8700_params();
    const graph::GraphPlanner planner;
    EXPECT_THROW((void)planner.plan(g, cpu_only, graph::Objective::kMakespan),
                 InvalidArgument);
}

TEST(GraphPlanner, DagAwarePlanBeatsMonolithicOnMemoryBound) {
    const graph::GraphPlanner planner;
    const auto devices = testbed_devices();
    const graph::Graph g = graph::make_memory_bound();
    const graph::Schedule mono =
        planner.plan_monolithic(g, devices, graph::Objective::kMakespan);
    const graph::Schedule dag = planner.plan(g, devices, graph::Objective::kMakespan);
    expect_feasible(g, mono, "monolithic");
    expect_feasible(g, dag, "dag");
    EXPECT_LT(dag.makespan_s(), mono.makespan_s());
}

TEST(GraphPlanner, CrossoverInversionBetweenHostAndDiscrete) {
    const graph::GraphPlanner planner;
    const auto devices = testbed_devices();
    const auto winner = [&](double intensity) {
        graph::SynthConfig cfg;
        cfg.tensor_mb = 1.0;  // the bench sweep's shape: fits the CPU LLC
        cfg.flops_per_byte = intensity;
        const graph::Graph g = graph::make_synthetic(cfg);
        const graph::Schedule mono =
            planner.plan_monolithic(g, devices, graph::Objective::kMakespan);
        return mono.devices[mono.steps.front().device].name;
    };
    EXPECT_NE(winner(0.125), "gtx1080ti")
        << "memory-bound graphs must favour a host-memory device";
    EXPECT_EQ(winner(512.0), "gtx1080ti")
        << "compute-bound graphs must favour the discrete GPU";
}

TEST(GraphPlanner, EnergyObjectivePrefersNoDearerPlanThanMakespan) {
    const graph::GraphPlanner planner;
    const auto devices = testbed_devices();
    const graph::Graph g = graph::make_memory_bound();
    const graph::Schedule fast = planner.plan(g, devices, graph::Objective::kMakespan);
    const graph::Schedule lean = planner.plan(g, devices, graph::Objective::kEnergy);
    expect_feasible(g, lean, "energy");
    EXPECT_LE(lean.total_energy_j(), fast.total_energy_j() + 1e-12);
}

TEST(GraphPlanner, CachedPlanHitsAndRetimesAgainstBusyDevices) {
    graph::GraphPlanner planner;
    auto devices = testbed_devices();
    const graph::Graph g = graph::make_memory_bound();

    graph::Schedule first;
    (void)planner.plan_cached(g, devices, graph::Objective::kMakespan, &first);
    EXPECT_EQ(planner.cache_size(), 1U);
    EXPECT_EQ(planner.cache_hits(), 0U);

    for (auto& device : devices) device.free_at = 5.0;  // everything busy until t=5
    graph::Schedule second;
    (void)planner.plan_cached(g, devices, graph::Objective::kMakespan, &second);
    EXPECT_EQ(planner.cache_size(), 1U);
    EXPECT_EQ(planner.cache_hits(), 1U);

    ASSERT_EQ(first.steps.size(), second.steps.size());
    for (std::size_t s = 0; s < second.steps.size(); ++s) {
        EXPECT_EQ(first.steps[s].device, second.steps[s].device);
        EXPECT_EQ(first.steps[s].nodes, second.steps[s].nodes);
        EXPECT_GE(second.steps[s].start_s, 5.0);
    }
    expect_feasible(g, second, "re-timed");
}

TEST(GraphPlanner, PlanCacheEvictsLeastRecentlyUsedAtCapacity) {
    graph::GraphPlanner planner;
    const auto devices = testbed_devices();
    const auto plan = [&](const graph::Graph& g) {
        (void)planner.plan_cached(g, devices, graph::Objective::kMakespan, nullptr);
    };
    const auto fresh = [](std::size_t i) {
        graph::Graph g("fresh-" + std::to_string(i));
        g.add_node(graph::make_op("op", 1024.0, 1024.0, 1.0));
        return g;
    };
    const graph::Graph hot = graph::make_compute_bound();
    constexpr std::size_t kCapacity = graph::GraphPlanner::kPlanCacheCapacity;
    constexpr std::size_t kFresh = kCapacity + 100;

    std::size_t hot_plans = 0;
    for (std::size_t i = 0; i < kFresh; ++i) {
        plan(fresh(i));
        if (i % 512 == 0) {
            plan(hot);  // re-planned well inside the eviction window
            ++hot_plans;
        }
    }
    EXPECT_EQ(planner.cache_size(), kCapacity);
    EXPECT_EQ(planner.cache_hits(), hot_plans - 1);

    plan(fresh(kFresh - 1));  // recent: still cached
    EXPECT_EQ(planner.cache_hits(), hot_plans);
    plan(fresh(0));  // least recently used: evicted long ago
    EXPECT_EQ(planner.cache_hits(), hot_plans);
    EXPECT_EQ(planner.cache_size(), kCapacity);
}

// Golden plans: every planner entry point and the dispatcher's re-timing
// must reproduce these schedules bit for bit. Each constant is the FNV-1a
// digest of a schedule's `mwsched 1` text (doubles at %.17g, lossless), so
// any change to grouping, placement or a single phase double moves it.
std::uint64_t text_digest(const std::string& text) {
    std::uint64_t h = 1469598103934665603ULL;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    return h;
}

std::uint64_t schedule_digest(const graph::Graph& g, const graph::Schedule& s) {
    std::ostringstream os;
    s.save(os, g);
    return text_digest(os.str());
}

TEST(GraphPlanner, GoldenPlansAreBitIdentical) {
    struct Golden {
        const char* label;
        std::uint64_t plan, monolithic, cached, executed;
    };
    const Golden expected[] = {
        // clang-format off
        {"random-1/makespan", 0x184d630a230f611e, 0x450b2c6043476d1e, 0x8c3911961c15d4b0, 0x38262f26e04a8f56},
        {"random-1/energy", 0x26af8b8dc3d54d69, 0x450b2c6043476d1e, 0x26af8b8dc3d54d69, 0xa91aeb1d414188f1},
        {"random-2/makespan", 0x7bc4d373e1d5cc14, 0x15a5a24eed7a0a00, 0x1e8319ef3d7e16cd, 0xcd786f6a20575d0c},
        {"random-2/energy", 0x91a70b0d02528c7f, 0x15a5a24eed7a0a00, 0x91a70b0d02528c7f, 0xea526bf66dcbaed4},
        {"random-3/makespan", 0x714905d572e7899d, 0x75e413a7ca1130be, 0xb62d0f7317886955, 0xa953d1e9fb50ba56},
        {"random-3/energy", 0xac95191c318f2964, 0x75e413a7ca1130be, 0xac95191c318f2964, 0x6051b0587be3f0bb},
        {"membound-x0.50/makespan", 0x6e73c5b5b720308a, 0xebf708e58a020c9a, 0x44b7e29499e5320b, 0x4dd4c49a6bf2ed61},
        {"membound-x0.50/energy", 0x6e73c5b5b720308a, 0xebf708e58a020c9a, 0x6e73c5b5b720308a, 0x586471f6cdac7c10},
        {"computebound-x0.50/makespan", 0x1f5d3fc23a24ad0e, 0x1f5d3fc23a24ad0e, 0xd5320eab9583c516, 0xa4a1d47904eec40e},
        {"computebound-x0.50/energy", 0x1f5d3fc23a24ad0e, 0x1f5d3fc23a24ad0e, 0xd5320eab9583c516, 0xb0754454c4bc606c},
        {"membound-x1.00/makespan", 0xdda54676fcf68f78, 0xaf951537267b42be, 0xbd7c985eadd1ba1b, 0xc1113145bb046c66},
        {"membound-x1.00/energy", 0x8634a56f93b424a6, 0xaf951537267b42be, 0x8634a56f93b424a6, 0x1c18aae44591de2d},
        {"computebound-x1.00/makespan", 0x4fb9c6f16e289a27, 0x4fb9c6f16e289a27, 0x7484d70d254d6238, 0x3620ad5d27aee7ca},
        {"computebound-x1.00/energy", 0x4fb9c6f16e289a27, 0x4fb9c6f16e289a27, 0x7484d70d254d6238, 0xdc44ac8438fc9e82},
        {"membound-x4.00/makespan", 0xf68ba6fde2a07fb8, 0xbfb8a792d5bdbae5, 0xa2725529f76f32f6, 0x430b894a466251e6},
        {"membound-x4.00/energy", 0x65506b927f873939, 0xbfb8a792d5bdbae5, 0x65506b927f873939, 0x316365a5a83e2695},
        {"computebound-x4.00/makespan", 0xa46d9c4c5e850d95, 0xa46d9c4c5e850d95, 0xb7897179cdd90157, 0x5ff8cee2a4cbbde2},
        {"computebound-x4.00/energy", 0xa46d9c4c5e850d95, 0xa46d9c4c5e850d95, 0xb7897179cdd90157, 0xa4146f85bd901e9f},
        // clang-format on
    };

    std::vector<graph::Graph> graphs;
    for (const std::uint64_t seed : {1, 2, 3}) {
        Rng rng(seed);
        graphs.push_back(graph::random_dag(rng, graph::SynthConfig{.stages = 24, .branches = 8}));
        graphs.back().set_name("random-" + std::to_string(seed));
    }
    for (const double scale : {0.5, 1.0, 4.0}) {
        graphs.push_back(graph::make_memory_bound(scale));
        graphs.push_back(graph::make_compute_bound(scale));
    }

    // Busy devices: queued work and part-way DVFS ramps.
    auto busy = testbed_devices();
    const double free_at[] = {0.003, 0.0, 0.0125};
    const double clock_ratio[] = {0.6, 0.85, 0.4};
    for (std::size_t d = 0; d < busy.size(); ++d) {
        busy[d].free_at = free_at[d];
        busy[d].clock_ratio = clock_ratio[d];
    }
    const graph::GraphPlanner planner;
    graph::GraphPlanner cache;
    device::DeviceRegistry registry = device::DeviceRegistry::standard_testbed();
    sched::Dispatcher dispatcher(registry);

    std::vector<Golden> actual;
    for (const graph::Graph& g : graphs) {
        for (const auto objective : {graph::Objective::kMakespan, graph::Objective::kEnergy}) {
            const std::string label =
                g.name() + (objective == graph::Objective::kMakespan ? "/makespan" : "/energy");
            graph::Schedule missed;
            graph::Schedule hit;
            (void)cache.plan_cached(g, busy, objective, &missed);
            (void)cache.plan_cached(g, busy, objective, &hit);
            EXPECT_EQ(schedule_digest(g, missed), schedule_digest(g, hit)) << label;
            const graph::Schedule executed = dispatcher.run_schedule(g, hit, 0.001);
            actual.push_back({nullptr, schedule_digest(g, planner.plan(g, busy, objective)),
                              schedule_digest(g, planner.plan_monolithic(g, busy, objective)),
                              schedule_digest(g, hit), schedule_digest(g, executed)});
            expect_feasible(g, executed, label.c_str());

            const std::size_t i = actual.size() - 1;
            const bool known = i < std::size(expected) && label == expected[i].label;
            const Golden& want = known ? expected[i] : Golden{};
            EXPECT_TRUE(known && want.plan == actual[i].plan &&
                        want.monolithic == actual[i].monolithic &&
                        want.cached == actual[i].cached && want.executed == actual[i].executed)
                << std::hex << std::showbase << "{\"" << label << "\", " << actual[i].plan
                << ", " << actual[i].monolithic << ", " << actual[i].cached << ", "
                << actual[i].executed << "},";
        }
    }
    EXPECT_EQ(actual.size(), std::size(expected));
}

// ---------------------------------------------------------------------------
// mwsched text format
// ---------------------------------------------------------------------------

TEST(GraphSchedule, SaveLoadRoundTrip) {
    const graph::GraphPlanner planner;
    const auto devices = testbed_devices();
    const graph::Graph g = graph::make_memory_bound();
    const graph::Schedule s = planner.plan(g, devices, graph::Objective::kMakespan);

    std::stringstream buffer;
    s.save(buffer, g);
    const auto [g2, s2] = graph::Schedule::load(buffer);

    EXPECT_EQ(g2.name(), g.name());
    EXPECT_EQ(g2.fingerprint(), g.fingerprint());
    ASSERT_EQ(s2.devices.size(), s.devices.size());
    for (std::size_t d = 0; d < s.devices.size(); ++d) {
        EXPECT_EQ(s2.devices[d].name, s.devices[d].name);
        EXPECT_EQ(s2.devices[d].scratchpad_bytes, s.devices[d].scratchpad_bytes);
        EXPECT_EQ(s2.devices[d].link_gbps, s.devices[d].link_gbps);
        EXPECT_EQ(s2.devices[d].link_latency_s, s.devices[d].link_latency_s);
        EXPECT_EQ(s2.devices[d].local_gbps, s.devices[d].local_gbps);
    }
    ASSERT_EQ(s2.steps.size(), s.steps.size());
    for (std::size_t i = 0; i < s.steps.size(); ++i) {
        EXPECT_EQ(s2.steps[i].device, s.steps[i].device);
        EXPECT_EQ(s2.steps[i].nodes, s.steps[i].nodes);
        EXPECT_EQ(s2.steps[i].start_s, s.steps[i].start_s);  // %.17g is lossless
        EXPECT_EQ(s2.steps[i].load_s, s.steps[i].load_s);
        EXPECT_EQ(s2.steps[i].compute_s, s.steps[i].compute_s);
        EXPECT_EQ(s2.steps[i].store_s, s.steps[i].store_s);
    }
    expect_feasible(g2, s2, "round-tripped");
}

TEST(GraphSchedule, LoadRejectsMalformedInput) {
    const auto load = [](const std::string& text) {
        std::istringstream is(text);
        return graph::Schedule::load(is);
    };
    EXPECT_THROW((void)load(""), IoError);
    EXPECT_THROW((void)load("mwsched 2\nend\n"), IoError);
    EXPECT_THROW((void)load("mwsched 1\ngraph g 1\nend\n"), IoError);  // node count lies
    EXPECT_THROW((void)load("mwsched 1\ngraph g 0\n"), IoError);       // truncated
    EXPECT_THROW((void)load("mwsched 1\ngraph g 0\nbogus record\nend\n"), IoError);
}

// ---------------------------------------------------------------------------
// Independent verifier: every mutation kind must be caught
// ---------------------------------------------------------------------------

class GraphVerifier : public ::testing::Test {
protected:
    void SetUp() override {
        graph_ = graph::make_memory_bound();
        const graph::GraphPlanner planner;
        schedule_ = planner.plan(graph_, testbed_devices(), graph::Objective::kMakespan);
        ASSERT_TRUE(graph::verify_schedule(graph_, schedule_).empty());
        ASSERT_GT(schedule_.steps.size(), 1U);
    }

    graph::Graph graph_;
    graph::Schedule schedule_;
};

TEST_F(GraphVerifier, RejectsPrecedenceViolation) {
    // Pull some step with a cross-step producer back to t=0.
    for (std::size_t s = 1; s < schedule_.steps.size(); ++s) {
        graph::Schedule bad = schedule_;
        bad.steps[s].start_s = 0.0;
        const auto violations = graph::verify_schedule(graph_, bad);
        if (!violations.empty()) {
            EXPECT_TRUE(has_kind(violations, graph::ViolationKind::kPrecedence) ||
                        has_kind(violations, graph::ViolationKind::kOverlap));
            return;
        }
    }
    FAIL() << "no step could be made to violate precedence";
}

TEST_F(GraphVerifier, RejectsSameDeviceOverlap) {
    for (std::size_t a = 0; a < schedule_.steps.size(); ++a) {
        for (std::size_t b = a + 1; b < schedule_.steps.size(); ++b) {
            if (schedule_.steps[a].device != schedule_.steps[b].device) continue;
            graph::Schedule bad = schedule_;
            bad.steps[b].start_s = bad.steps[a].start_s;
            const auto violations = graph::verify_schedule(graph_, bad);
            EXPECT_FALSE(violations.empty());
            return;
        }
    }
    GTEST_SKIP() << "plan has no two steps on one device";
}

TEST_F(GraphVerifier, RejectsCapacityOverflow) {
    graph::Schedule bad = schedule_;
    for (auto& device : bad.devices) device.scratchpad_bytes = 1.0;
    const auto violations = graph::verify_schedule(graph_, bad);
    EXPECT_TRUE(has_kind(violations, graph::ViolationKind::kCapacity))
        << graph::format_violations(violations);
}

TEST_F(GraphVerifier, RejectsBandwidthCheating) {
    graph::Schedule bad = schedule_;
    bool mutated = false;
    for (auto& step : bad.steps) {
        if (step.load_s > 0.0) {
            step.load_s = 0.0;
            mutated = true;
            break;
        }
    }
    ASSERT_TRUE(mutated);
    const auto violations = graph::verify_schedule(graph_, bad);
    EXPECT_TRUE(has_kind(violations, graph::ViolationKind::kBandwidth))
        << graph::format_violations(violations);
}

TEST_F(GraphVerifier, RejectsCoverageGapAndDuplicate) {
    graph::Schedule missing = schedule_;
    for (auto& step : missing.steps) {
        if (step.nodes.size() > 1) {
            step.nodes.pop_back();
            break;
        }
    }
    EXPECT_TRUE(has_kind(graph::verify_schedule(graph_, missing),
                         graph::ViolationKind::kCoverage));

    graph::Schedule duplicated = schedule_;
    duplicated.steps.push_back(duplicated.steps.front());
    EXPECT_TRUE(has_kind(graph::verify_schedule(graph_, duplicated),
                         graph::ViolationKind::kCoverage));
}

TEST_F(GraphVerifier, RejectsUndercountedStorePhaseWhenConsumerMovesDevices) {
    // Same-device stores are priced at local_gbps; claiming that price while
    // a consumer actually sits on another device must trip the bandwidth
    // check (the spill link is slower).
    graph::Schedule bad = schedule_;
    for (auto& device : bad.devices) {
        device.link_gbps = 1e-3;  // make the link brutally slow
        device.link_latency_s = 1.0;
    }
    const auto violations = graph::verify_schedule(graph_, bad);
    EXPECT_TRUE(has_kind(violations, graph::ViolationKind::kBandwidth))
        << graph::format_violations(violations);
}

TEST_F(GraphVerifier, RejectsMalformedStepsWithoutReadingOutOfBounds) {
    // Each mutant must come back kMalformed before any table is indexed
    // with the bad value (the sanitizer presets catch a stray read).
    const auto expect_malformed = [this](const graph::Schedule& bad, const char* what) {
        const auto violations = graph::verify_schedule(graph_, bad);
        EXPECT_TRUE(has_kind(violations, graph::ViolationKind::kMalformed))
            << what << ":\n"
            << graph::format_violations(violations);
    };
    constexpr std::size_t kHuge = static_cast<std::size_t>(-1);
    for (const std::size_t device : {schedule_.devices.size(), kHuge}) {
        graph::Schedule bad = schedule_;
        bad.steps.back().device = device;
        expect_malformed(bad, "device index out of range");
    }
    for (const graph::NodeId node : {graph_.size(), kHuge}) {
        graph::Schedule bad = schedule_;
        bad.steps.front().nodes.push_back(node);
        expect_malformed(bad, "node id outside the graph");
    }
    {
        graph::Schedule bad = schedule_;
        bad.steps.insert(bad.steps.begin() + 1, graph::Step{});
        expect_malformed(bad, "empty step");
    }
    {
        graph::Schedule bad = schedule_;
        bad.steps.front().load_s = std::nan("");
        expect_malformed(bad, "NaN phase");
    }
    {
        graph::Schedule bad = schedule_;
        bad.steps.back().compute_s = -1e-6;
        expect_malformed(bad, "negative phase");
    }
}

TEST_F(GraphVerifier, RejectsBackwardsOrderInsideAFusedStep) {
    graph::Schedule bad = schedule_;
    const auto fused = std::find_if(bad.steps.begin(), bad.steps.end(),
                                    [](const graph::Step& step) { return step.nodes.size() > 1; });
    ASSERT_NE(fused, bad.steps.end()) << "plan fused no operators";
    std::reverse(fused->nodes.begin(), fused->nodes.end());
    const auto violations = graph::verify_schedule(graph_, bad);
    const auto backwards = std::find_if(violations.begin(), violations.end(), [](const auto& v) {
        return v.kind == graph::ViolationKind::kPrecedence &&
               v.message.find("runs backwards") != std::string::npos;
    });
    EXPECT_NE(backwards, violations.end()) << graph::format_violations(violations);
}

// ---------------------------------------------------------------------------
// Integration: scheduler, dispatcher, server
// ---------------------------------------------------------------------------

struct GraphWorld {
    device::DeviceRegistry registry = device::DeviceRegistry::standard_testbed();
    sched::Dispatcher dispatcher{registry};
    std::optional<sched::OnlineScheduler> scheduler;
    ManualClock clock;

    GraphWorld() {
        dispatcher.register_model(nn::zoo::simple(), 7);
        dispatcher.deploy_all();
        const auto dataset = sched::build_scheduler_dataset(
            registry, {nn::zoo::simple()}, {.batches = {1, 4}});
        sched::DevicePredictor predictor(
            std::make_unique<ml::RandomForest>(ml::ForestConfig{.n_estimators = 4, .seed = 3}),
            dataset.device_names);
        predictor.fit(dataset);
        scheduler.emplace(dispatcher, std::move(predictor), dataset,
                          sched::SchedulerConfig{.explore_probability = 0.0});
        for (device::Device* dev : registry.devices()) dev->reset_timeline();
    }
};

TEST(GraphIntegration, SchedulerPlanGraphVerifies) {
    GraphWorld world;
    const graph::Graph g = graph::make_memory_bound();
    const graph::Schedule s =
        world.scheduler->plan_graph(g, sched::Policy::kMaxThroughput, 0.0);
    EXPECT_EQ(s.devices.size(), world.registry.devices().size());
    expect_feasible(g, s, "plan_graph");
    // kMinEnergy maps to the energy objective and must also be feasible.
    expect_feasible(g, world.scheduler->plan_graph(g, sched::Policy::kMinEnergy, 0.0),
                    "plan_graph energy");
}

TEST(GraphIntegration, DispatcherRunScheduleBooksDeviceTime) {
    GraphWorld world;
    const graph::Graph g = graph::make_memory_bound();
    const graph::Schedule planned =
        world.scheduler->plan_graph(g, sched::Policy::kMaxThroughput, 0.0);
    const graph::Schedule executed = world.dispatcher.run_schedule(g, planned, 0.0);
    expect_feasible(g, executed, "executed");
    double booked = 0.0;
    for (device::Device* dev : world.registry.devices()) booked += dev->busy_until();
    EXPECT_GT(booked, 0.0);
}

TEST(GraphIntegration, ServerRunGraphVerifiesAndCountsRuns) {
    GraphWorld world;
    serve::ServerConfig config;
    config.workers = 1;
    serve::Server server(*world.scheduler, world.dispatcher, world.clock, config);

    const graph::Graph g = graph::make_memory_bound();
    const auto result = server.run_graph(g, sched::Policy::kMaxThroughput);
    EXPECT_TRUE(result.verified);
    EXPECT_FALSE(result.executed.steps.empty());
    expect_feasible(g, result.executed, "server-executed");

    bool found = false;
    for (const auto& series : server.metrics().series()) {
        if (series.name == "mw_graph_runs_total") {
            found = true;
            EXPECT_EQ(series.counter->value(), 1U);
        }
    }
    EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Lock ranks: the planner cache sits BELOW the scheduler lock
// ---------------------------------------------------------------------------

#if defined(MW_LOCK_RANK_CHECKS)

TEST(GraphLockRankDeathTest, SchedulerThenPlannerCacheAborts) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Mutex scheduler_mu(LockRank::kScheduler);
    graph::GraphPlanner planner;
    const auto devices = testbed_devices();
    const graph::Graph g = graph::make_compute_bound();
    EXPECT_DEATH(
        {
            const MutexLock lock(scheduler_mu);
            graph::Schedule instantiated;
            (void)planner.plan_cached(g, devices, graph::Objective::kMakespan, &instantiated);
        },
        "lock-rank violation: acquiring .graph-planner. .rank 9. "
        "while already holding .scheduler. .rank 10.");
}

#endif  // MW_LOCK_RANK_CHECKS

}  // namespace
