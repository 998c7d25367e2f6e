// Cluster chaos suite: partition the fabric under live traffic and prove the
// router's breaker behaviour end to end — it stops routing to unreachable
// replicas within the breaker window, re-admits them via half-open probes
// after the partition heals, and keeps the terminal accounting exactly
// balanced through a seeded loss/delay storm. Run directly for one seed, or
// sweep seeds the way the nightly partition-chaos pipeline does:
//
//   MW_CHAOS_SEED=7 ./tests/test_cluster_chaos
//   MW_CHAOS_TRACE=partition.trace.json MW_CHAOS_SEED=7 ./tests/test_cluster_chaos
//
// MW_CHAOS_SEED picks the NetFaultInjector's root seed (default 42);
// MW_CHAOS_TRACE writes a Chrome trace of the run for post-mortem.
#include <gtest/gtest.h>

#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "cluster/node.hpp"
#include "cluster/router.hpp"
#include "cluster/transport.hpp"
#include "common/timer.hpp"
#include "fault/netfault.hpp"
#include "nn/zoo.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "workload/stream.hpp"

// TSan serializes every thread onto one core at a large slowdown, so "no
// terminal landed since the last poll" usually means the worker threads were
// simply never scheduled — not that the fleet is waiting on simulated time.
// Give them proportionally more wall-time polls before advancing the clock,
// or request deadlines expire on work that was still runnable.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MW_TEST_UNDER_TSAN 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define MW_TEST_UNDER_TSAN 1
#endif

namespace {

using namespace mw;
using fault::BreakerState;

#if defined(MW_TEST_UNDER_TSAN)
constexpr int kStallPolls = 32;
#else
constexpr int kStallPolls = 4;
#endif

std::uint64_t chaos_seed() {
    if (const char* env = std::getenv("MW_CHAOS_SEED")) {
        return std::strtoull(env, nullptr, 10);
    }
    return 42;
}

/// Installs a TraceRecorder for the test's duration when MW_CHAOS_TRACE is
/// set, and writes the Chrome trace there on teardown.
class ChaosTraceGuard {
public:
    ChaosTraceGuard() {
        if (const char* env = std::getenv("MW_CHAOS_TRACE")) {
            path_ = env;
            recorder_ = std::make_unique<obs::TraceRecorder>(
                obs::TraceConfig{.ring_capacity = 1 << 16});
            obs::TraceRecorder::install(recorder_.get());
        }
    }
    ~ChaosTraceGuard() {
        if (recorder_ == nullptr) return;
        obs::TraceRecorder::install(nullptr);
        obs::write_chrome_trace_file(path_, *recorder_);
    }

private:
    std::string path_;
    std::unique_ptr<obs::TraceRecorder> recorder_;
};

const cluster::ModelBundle& chaos_bundle() {
    static const cluster::ModelBundle bundle =
        cluster::build_model_bundle({nn::zoo::simple()}, {1, 4, 16});
    return bundle;
}

struct PartitionWorld {
    ManualClock clock;
    fault::NetFaultInjector net;
    std::unique_ptr<cluster::Transport> transport;
    std::vector<std::unique_ptr<cluster::Node>> nodes;
    std::unique_ptr<cluster::Router> router;
    workload::SyntheticSource source{31};

    explicit PartitionWorld(std::size_t n_nodes, cluster::RouterConfig rc,
                            fault::NetFaultConfig nc = {})
        : net(nc, &clock) {
        transport = std::make_unique<cluster::Transport>(
            clock, cluster::TransportConfig{}, &net);
        for (std::size_t i = 0; i < n_nodes; ++i) {
            cluster::NodeConfig node_config;
            node_config.name = "node" + std::to_string(i);
            node_config.server.workers = 1;
            node_config.server.queue_capacity = 512;
            node_config.completion_poll_s = 0.0005;
            nodes.push_back(std::make_unique<cluster::Node>(
                node_config, chaos_bundle(), clock, *transport));
        }
        rc.maintenance_poll_s = 0.0005;
        router = std::make_unique<cluster::Router>(clock, *transport, rc);
        for (const auto& node : nodes) {
            router->add_node(node->name(), node->models());
        }
    }

    ~PartitionWorld() {
        if (router) router->stop();
        if (transport) transport->stop();
        for (auto& node : nodes) node->stop();
    }

    std::future<cluster::ClusterResponse> submit() {
        serve::InferenceRequest request;
        request.model_name = "simple";
        request.payload = source.next_batch(4, 4);
        request.policy = sched::Policy::kMaxThroughput;
        return router->submit(std::move(request));
    }

    /// Advance the simulated clock only while the fleet stalls (kStallPolls
    /// consecutive polls with no new terminal); returns false when `target`
    /// terminals never land within the simulated budget.
    bool drive(std::uint64_t target, double step = 0.002, double budget_s = 60.0) {
        const double limit = clock.now() + budget_s;
        std::uint64_t last = router->counters().terminal();
        int stalled = 0;
        while (router->counters().terminal() < target) {
            if (clock.now() > limit) return false;
            sleep_for_seconds(0.0003);
            const std::uint64_t done = router->counters().terminal();
            if (done != last) {
                stalled = 0;
            } else if (++stalled >= kStallPolls) {
                clock.advance(step);
                stalled = 0;
            }
            last = done;
        }
        return true;
    }
};

// The headline acceptance scenario: partition one replica away under load.
// The router must (1) finish the in-flight work by rerouting, (2) open the
// node's breaker and stop routing to it within the breaker window — proven
// by a post-partition burst that generates ZERO new timeouts — and (3)
// re-admit the node via a half-open probe after the heal.
TEST(ClusterPartitionChaos, BreakerIsolatesPartitionedNodeAndHealReadmits) {
    const ChaosTraceGuard trace_guard;

    cluster::RouterConfig rc;
    rc.policy = cluster::RoutePolicy::kLeastLoaded;
    rc.request_timeout_s = 0.03;
    rc.max_attempts = 3;
    rc.health.consecutive_failures_to_open = 2;
    rc.health.min_observations = 2;
    rc.health.open_error_threshold = 0.5;
    // Long cooldown: the breaker must stay open through the whole isolation
    // assertion phase; we advance past it explicitly before the heal check.
    rc.health.cooldown_s = 5.0;
    rc.health.probe_interval_s = 0.01;
    PartitionWorld world(3, rc);

    // Phase 1: warm traffic across the healthy fleet.
    {
        std::vector<std::future<cluster::ClusterResponse>> warm;
        for (int i = 0; i < 30; ++i) warm.push_back(world.submit());
        ASSERT_TRUE(world.drive(30));
        for (auto& f : warm) {
            const auto response = f.get();
            ASSERT_TRUE(response.ok()) << response.error;
        }
    }
    ASSERT_EQ(world.router->health().state("node2"), BreakerState::kClosed);

    // Phase 2: cut node2 off and keep submitting. Every request must still
    // complete (reroute onto node0/node1), and the repeated deadline misses
    // must open node2's breaker.
    world.net.partition({"router", "node0", "node1"});
    {
        std::vector<std::future<cluster::ClusterResponse>> cut;
        for (int i = 0; i < 30; ++i) cut.push_back(world.submit());
        ASSERT_TRUE(world.drive(60));
        for (auto& f : cut) {
            const auto response = f.get();
            ASSERT_TRUE(response.ok()) << response.error;
            EXPECT_NE(response.node_name, "node2");
        }
    }
    EXPECT_EQ(world.router->health().state("node2"), BreakerState::kOpen);
    EXPECT_GT(world.router->counters().timeouts, 0U);
    EXPECT_GT(world.net.partition_drops(), 0U);

    // Phase 3: with the breaker open, new traffic must not touch node2 at
    // all — no first-attempt sends into the void, so zero NEW timeouts.
    const std::uint64_t timeouts_before = world.router->counters().timeouts;
    {
        std::vector<std::future<cluster::ClusterResponse>> isolated;
        for (int i = 0; i < 20; ++i) isolated.push_back(world.submit());
        ASSERT_TRUE(world.drive(80));
        for (auto& f : isolated) {
            const auto response = f.get();
            ASSERT_TRUE(response.ok()) << response.error;
            EXPECT_NE(response.node_name, "node2");
            EXPECT_EQ(response.attempts, 1U)
                << "router sent a first attempt to the partitioned node";
        }
    }
    EXPECT_EQ(world.router->counters().timeouts, timeouts_before)
        << "breaker failed to isolate the partitioned replica";

    // Phase 4: heal, let the cooldown elapse on the injected clock, and
    // prove node2 is re-admitted: a half-open probe lands there, succeeds,
    // and closes the breaker.
    world.net.heal_partition();
    world.clock.advance(rc.health.cooldown_s + 0.1);
    bool node2_served = false;
    for (int round = 0; round < 40 && !node2_served; ++round) {
        std::vector<std::future<cluster::ClusterResponse>> probe;
        for (int i = 0; i < 6; ++i) probe.push_back(world.submit());
        const std::uint64_t target = world.router->counters().submitted;
        ASSERT_TRUE(world.drive(target));
        for (auto& f : probe) {
            const auto response = f.get();
            ASSERT_TRUE(response.ok()) << response.error;
            node2_served |= response.node_name == "node2";
        }
    }
    EXPECT_TRUE(node2_served) << "healed replica never re-admitted";
    EXPECT_EQ(world.router->health().state("node2"), BreakerState::kClosed);

    const auto counters = world.router->counters();
    EXPECT_TRUE(counters.balanced())
        << "submitted=" << counters.submitted
        << " terminal=" << counters.terminal();
}

// A seeded loss/delay storm across the whole fabric. Whatever the seed does
// to individual frames, two invariants must hold: every future resolves, and
// the terminal accounting balances to the request count exactly.
TEST(ClusterPartitionChaos, SeededStormKeepsAccountingExact) {
    const ChaosTraceGuard trace_guard;
    const std::uint64_t seed = chaos_seed();
    SCOPED_TRACE("MW_CHAOS_SEED=" + std::to_string(seed));

    cluster::RouterConfig rc;
    rc.request_timeout_s = 0.05;
    rc.max_attempts = 3;
    rc.health.consecutive_failures_to_open = 3;
    rc.health.min_observations = 4;
    rc.health.cooldown_s = 0.05;
    rc.health.probe_interval_s = 0.01;
    fault::NetFaultConfig nc;
    nc.drop_p = 0.10;
    nc.delay_p = 0.20;
    nc.delay_s = 0.004;
    nc.seed = seed;
    PartitionWorld world(3, rc, nc);

    constexpr int kRequests = 60;
    std::vector<std::future<cluster::ClusterResponse>> futures;
    futures.reserve(kRequests);
    for (int i = 0; i < kRequests; ++i) futures.push_back(world.submit());
    ASSERT_TRUE(world.drive(kRequests, 0.002, 120.0));

    int completed = 0;
    int failed = 0;
    for (auto& f : futures) {
        const auto response = f.get();
        if (response.ok()) {
            ++completed;
            EXPECT_FALSE(response.node_name.empty());
        } else {
            ++failed;
            // Only exhaustion may fail a request under a lossy (not severed)
            // fabric; shutdown/shed would mean mis-accounting elsewhere.
            EXPECT_EQ(response.status, serve::RequestStatus::kFailed);
        }
    }
    const auto counters = world.router->counters();
    EXPECT_EQ(counters.submitted, static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(counters.completed, static_cast<std::uint64_t>(completed));
    EXPECT_EQ(counters.failed, static_cast<std::uint64_t>(failed));
    EXPECT_TRUE(counters.balanced());
    // drop_p=0.1 with 3 attempts: the storm must not sink most traffic.
    EXPECT_GT(completed, kRequests / 2);
}

// Node kill mid-stream (the distributed analogue of the device-kill chaos
// test): one replica goes dark with requests in flight; the fleet absorbs
// them and the dead node stops receiving traffic.
TEST(ClusterPartitionChaos, NodeKillMidStreamRebalances) {
    const ChaosTraceGuard trace_guard;

    cluster::RouterConfig rc;
    rc.request_timeout_s = 0.03;
    rc.max_attempts = 3;
    rc.health.consecutive_failures_to_open = 2;
    rc.health.min_observations = 2;
    rc.health.cooldown_s = 10.0;
    PartitionWorld world(2, rc);

    std::vector<std::future<cluster::ClusterResponse>> futures;
    for (int i = 0; i < 10; ++i) futures.push_back(world.submit());
    world.net.kill_node("node1");
    for (int i = 0; i < 20; ++i) futures.push_back(world.submit());
    ASSERT_TRUE(world.drive(30, 0.002, 120.0));

    int survivors = 0;
    for (auto& f : futures) {
        const auto response = f.get();
        if (response.ok()) {
            EXPECT_EQ(response.node_name, "node0");
            ++survivors;
        }
    }
    // In-flight frames already delivered to node1 before the kill may still
    // die with it (replies dropped, attempts exhausted), but the fleet must
    // complete the clear majority on node0.
    EXPECT_GE(survivors, 20);
    EXPECT_EQ(world.router->health().state("node1"), BreakerState::kOpen);
    EXPECT_TRUE(world.router->counters().balanced());
}

}  // namespace
