// mw::cluster suite: packet round-trips and malformed-frame defence (the
// asan-ubsan property coverage), the simulated transport's timing model,
// NetFaultInjector topology semantics, router/node integration on a shared
// ManualClock, and the cluster-tier lock-rank death tests.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/node.hpp"
#include "cluster/packet.hpp"
#include "cluster/router.hpp"
#include "cluster/transport.hpp"
#include "common/sync.hpp"
#include "common/timer.hpp"
#include "fault/netfault.hpp"
#include "nn/zoo.hpp"
#include "workload/stream.hpp"

// Under TSan every thread shares one serialized core at a large slowdown, so
// a no-progress poll usually means the workers were never scheduled, not that
// the fleet waits on simulated time — give them more polls before advancing.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MW_TEST_UNDER_TSAN 1
#endif
#elif defined(__SANITIZE_THREAD__)
#define MW_TEST_UNDER_TSAN 1
#endif

namespace {

using namespace mw;
using cluster::Frame;
using cluster::PacketError;

#if defined(MW_TEST_UNDER_TSAN)
constexpr int kStallPolls = 32;
#else
constexpr int kStallPolls = 4;
#endif

// ---------------------------------------------------------------------------
// Packet round-trips

Tensor make_payload(std::size_t rows, std::size_t cols, float base = 0.5F) {
    Tensor t(Shape{rows, cols});
    for (std::size_t i = 0; i < t.numel(); ++i) {
        t[i] = base + static_cast<float>(i) * 0.25F;
    }
    return t;
}

cluster::RequestPacket make_request() {
    cluster::RequestPacket p;
    p.id = 0x0123456789abcdefULL;
    p.model_name = "simple";
    p.policy = sched::Policy::kMinLatency;
    p.slo_s = 0.125;
    p.sent_at_s = 17.5;
    p.payload = make_payload(3, 4);
    return p;
}

cluster::ResponsePacket make_response() {
    cluster::ResponsePacket p;
    p.id = 42;
    p.status = serve::RequestStatus::kCompleted;
    p.node_name = "node3";
    p.device_name = "dGPU";
    p.error = "";
    p.queue_s = 0.001;
    p.execute_s = 0.002;
    p.service_s = 0.0015;
    p.end_time_s = 1.25;
    p.energy_j = 0.375;
    p.attempts = 2;
    p.hedged = true;
    p.outputs = make_payload(3, 3, -1.0F);
    return p;
}

TEST(ClusterPacket, RequestRoundTripsEveryField) {
    const cluster::RequestPacket original = make_request();
    const Frame frame = original.serialize();
    ASSERT_EQ(cluster::frame_type(frame), cluster::FrameType::kRequest);

    const cluster::RequestPacket parsed = cluster::parse_request(frame);
    EXPECT_EQ(parsed.id, original.id);
    EXPECT_EQ(parsed.model_name, original.model_name);
    EXPECT_EQ(parsed.policy, original.policy);
    EXPECT_DOUBLE_EQ(parsed.slo_s, original.slo_s);
    EXPECT_DOUBLE_EQ(parsed.sent_at_s, original.sent_at_s);
    ASSERT_EQ(parsed.payload.shape(), original.payload.shape());
    for (std::size_t i = 0; i < parsed.payload.numel(); ++i) {
        EXPECT_EQ(parsed.payload.at(i), original.payload.at(i));
    }
}

TEST(ClusterPacket, ResponseRoundTripsEveryField) {
    const cluster::ResponsePacket original = make_response();
    const Frame frame = original.serialize();
    ASSERT_EQ(cluster::frame_type(frame), cluster::FrameType::kResponse);

    const cluster::ResponsePacket parsed = cluster::parse_response(frame);
    EXPECT_EQ(parsed.id, original.id);
    EXPECT_EQ(parsed.status, original.status);
    EXPECT_EQ(parsed.node_name, original.node_name);
    EXPECT_EQ(parsed.device_name, original.device_name);
    EXPECT_EQ(parsed.error, original.error);
    EXPECT_DOUBLE_EQ(parsed.queue_s, original.queue_s);
    EXPECT_DOUBLE_EQ(parsed.execute_s, original.execute_s);
    EXPECT_DOUBLE_EQ(parsed.service_s, original.service_s);
    EXPECT_DOUBLE_EQ(parsed.end_time_s, original.end_time_s);
    EXPECT_DOUBLE_EQ(parsed.energy_j, original.energy_j);
    EXPECT_EQ(parsed.attempts, original.attempts);
    EXPECT_EQ(parsed.hedged, original.hedged);
    ASSERT_EQ(parsed.outputs.shape(), original.outputs.shape());
    for (std::size_t i = 0; i < parsed.outputs.numel(); ++i) {
        EXPECT_EQ(parsed.outputs.at(i), original.outputs.at(i));
    }
}

TEST(ClusterPacket, EmptyOutputsRoundTrip) {
    cluster::ResponsePacket original = make_response();
    original.outputs = Tensor{};
    const cluster::ResponsePacket parsed =
        cluster::parse_response(original.serialize());
    EXPECT_TRUE(parsed.outputs.empty());
}

// The core property: EVERY strict prefix of a valid frame is rejected with
// PacketError — never UB, never a partial packet. asan-ubsan holds the line.
TEST(ClusterPacket, EveryTruncationOfRequestThrows) {
    const Frame frame = make_request().serialize();
    for (std::size_t len = 0; len < frame.size(); ++len) {
        const Frame cut(frame.begin(), frame.begin() + static_cast<long>(len));
        EXPECT_THROW((void)cluster::parse_request(cut), PacketError)
            << "prefix of length " << len << " parsed";
    }
}

TEST(ClusterPacket, EveryTruncationOfResponseThrows) {
    const Frame frame = make_response().serialize();
    for (std::size_t len = 0; len < frame.size(); ++len) {
        const Frame cut(frame.begin(), frame.begin() + static_cast<long>(len));
        EXPECT_THROW((void)cluster::parse_response(cut), PacketError)
            << "prefix of length " << len << " parsed";
    }
}

TEST(ClusterPacket, TrailingGarbageThrows) {
    Frame frame = make_request().serialize();
    frame.push_back(0x7f);
    EXPECT_THROW((void)cluster::parse_request(frame), PacketError);
}

TEST(ClusterPacket, HeaderCorruptionThrows) {
    const Frame frame = make_request().serialize();
    // Magic (bytes 0..3), version (4), type (5).
    for (std::size_t i = 0; i < 6; ++i) {
        Frame bad = frame;
        bad[i] ^= 0xff;
        EXPECT_THROW((void)cluster::frame_type(bad), PacketError)
            << "header byte " << i << " accepted corrupt";
    }
}

TEST(ClusterPacket, WrongFrameTypeThrows) {
    EXPECT_THROW((void)cluster::parse_request(make_response().serialize()),
                 PacketError);
    EXPECT_THROW((void)cluster::parse_response(make_request().serialize()),
                 PacketError);
}

TEST(ClusterPacket, UnknownPolicyByteThrows) {
    Frame frame = make_request().serialize();
    // Layout: header (6) + id (8), then the policy byte.
    frame[14] = 250;
    EXPECT_THROW((void)cluster::parse_request(frame), PacketError);
}

TEST(ClusterPacket, UnknownStatusByteThrows) {
    Frame frame = make_response().serialize();
    frame[14] = 250;
    EXPECT_THROW((void)cluster::parse_response(frame), PacketError);
}

TEST(ClusterPacket, OversizedNameLengthRejectedBeforeAllocation) {
    Frame frame = make_request().serialize();
    // The model-name length field sits after header + id + policy + slo +
    // sent_at = 6 + 8 + 1 + 8 + 8 = 31.
    const std::size_t off = 31;
    frame[off] = 0xff;
    frame[off + 1] = 0xff;
    frame[off + 2] = 0xff;
    frame[off + 3] = 0x7f;
    EXPECT_THROW((void)cluster::parse_request(frame), PacketError);
}

TEST(ClusterPacket, SerializingAnOversizedNameThrows) {
    cluster::RequestPacket p = make_request();
    p.model_name.assign(cluster::kMaxNameBytes + 1, 'x');
    EXPECT_THROW((void)p.serialize(), Error);
}

TEST(ClusterPacket, EmptyModelNameThrows) {
    cluster::RequestPacket p = make_request();
    p.model_name.clear();
    EXPECT_THROW((void)cluster::parse_request(p.serialize()), PacketError);
}

TEST(ClusterPacket, MaxSizePayloadRoundTrips) {
    // 4096 * 4096 == kMaxPayloadElems exactly: the largest legal payload.
    cluster::RequestPacket p;
    p.id = 9;
    p.model_name = "big";
    p.payload = Tensor(Shape{4096, 4096});
    p.payload[0] = 1.0F;
    p.payload[p.payload.numel() - 1] = 2.0F;
    ASSERT_EQ(p.payload.numel(), cluster::kMaxPayloadElems);

    const cluster::RequestPacket parsed = cluster::parse_request(p.serialize());
    EXPECT_EQ(parsed.payload.numel(), cluster::kMaxPayloadElems);
    EXPECT_EQ(parsed.payload.at(0), 1.0F);
    EXPECT_EQ(parsed.payload.at(parsed.payload.numel() - 1), 2.0F);
}

TEST(ClusterPacket, AbsurdTensorDimsRejectedWithoutAllocation) {
    Frame frame = make_request().serialize();
    // The payload dims sit right after the name bytes: 31 + 4 + 6 ("simple").
    const std::size_t off = 41;
    // rows = cols = 0xffffffff: the u64 product must not wrap into a small
    // "valid" size, and no allocation may happen before the cap check.
    for (std::size_t i = 0; i < 8; ++i) frame[off + i] = 0xff;
    EXPECT_THROW((void)cluster::parse_request(frame), PacketError);
}

TEST(ClusterPacket, ZeroExtentMismatchThrows) {
    Frame frame = make_request().serialize();
    const std::size_t off = 41;  // payload rows field (see above)
    for (std::size_t i = 0; i < 4; ++i) frame[off + i] = 0;
    EXPECT_THROW((void)cluster::parse_request(frame), PacketError);
}

// ---------------------------------------------------------------------------
// Transport timing

/// Spin (wall time) until `done()` or ~2s: delivery workers run on real
/// threads even though delivery TIME is simulated.
template <typename Pred>
bool eventually(Pred done) {
    for (int i = 0; i < 4000; ++i) {
        if (done()) return true;
        sleep_for_seconds(0.0005);
    }
    return done();
}

TEST(ClusterTransport, DeliversOnlyOnceSimulatedTimeArrives) {
    ManualClock clock;
    cluster::Transport transport(clock,
                                 {.default_link = {.latency_s = 0.010,
                                                   .bandwidth_bps = 1e12}});
    Atomic<int> delivered{0};
    transport.register_endpoint("b", [&](const std::string&, const Frame&) {
        delivered.fetch_add(1, std::memory_order_acq_rel);
    });
    transport.send("a", "b", Frame{1, 2, 3}, 1);
    EXPECT_EQ(transport.in_flight(), 1U);

    // Before the propagation delay elapses on the simulated clock, nothing
    // may arrive no matter how much real time passes.
    clock.advance(0.005);
    sleep_for_seconds(0.05);
    EXPECT_EQ(delivered.load(std::memory_order_acquire), 0);

    clock.advance(0.006);
    EXPECT_TRUE(eventually([&] {
        return delivered.load(std::memory_order_acquire) == 1;
    }));
    EXPECT_EQ(transport.frames_delivered(), 1U);
    transport.stop();
}

TEST(ClusterTransport, BandwidthSerializesFramesOnALink) {
    ManualClock clock;
    cluster::Transport transport(clock, {});
    // 1 kB/s: a 100-byte frame occupies the wire for 0.8 simulated seconds.
    transport.set_link("a", "b", {.latency_s = 0.0, .bandwidth_bps = 1000.0});
    std::vector<int> order;
    Mutex order_mu(LockRank::kWorkloadSource);  // any leaf rank works here
    transport.register_endpoint("b", [&](const std::string&, const Frame& f) {
        const MutexLock lock(order_mu);
        order.push_back(static_cast<int>(f[0]));
    });
    transport.send("a", "b", Frame(100, 1), 1);
    transport.send("a", "b", Frame(100, 2), 2);

    clock.advance(0.9);  // first frame's wire time elapsed, second still queued
    EXPECT_TRUE(eventually([&] {
        const MutexLock lock(order_mu);
        return order.size() == 1;
    }));
    clock.advance(0.8);
    EXPECT_TRUE(eventually([&] {
        const MutexLock lock(order_mu);
        return order.size() == 2;
    }));
    {
        const MutexLock lock(order_mu);
        EXPECT_EQ(order, (std::vector<int>{1, 2}));
    }
    transport.stop();
}

TEST(ClusterTransport, UnknownEndpointCountsAsDrop) {
    ManualClock clock;
    cluster::Transport transport(clock, {});
    transport.send("a", "nowhere", Frame{1}, 1);
    EXPECT_EQ(transport.frames_dropped(), 1U);
    EXPECT_EQ(transport.in_flight(), 0U);
    transport.stop();
}

// ---------------------------------------------------------------------------
// NetFaultInjector semantics

TEST(NetFault, KillAndReviveGateReachability) {
    fault::NetFaultInjector net;
    EXPECT_TRUE(net.reachable("router", "node0"));
    net.kill_node("node0");
    EXPECT_FALSE(net.reachable("router", "node0"));
    EXPECT_FALSE(net.reachable("node0", "router"));
    EXPECT_TRUE(net.reachable("router", "node1"));
    EXPECT_TRUE(net.on_frame("router", "node0", 1).dropped);
    net.revive_node("node0");
    EXPECT_TRUE(net.reachable("router", "node0"));
    EXPECT_FALSE(net.on_frame("router", "node0", 2).dropped);
}

TEST(NetFault, PartitionCutsOnlyCrossGroupLinks) {
    fault::NetFaultInjector net;
    net.partition({"router", "node0"});
    EXPECT_TRUE(net.partitioned());
    EXPECT_TRUE(net.reachable("router", "node0"));   // same side
    EXPECT_TRUE(net.reachable("node1", "node2"));    // same (other) side
    EXPECT_FALSE(net.reachable("router", "node1"));  // across the cut
    EXPECT_FALSE(net.reachable("node1", "router"));
    EXPECT_TRUE(net.on_frame("router", "node1", 1).dropped);
    EXPECT_GE(net.partition_drops(), 1U);
    net.heal_partition();
    EXPECT_TRUE(net.reachable("router", "node1"));
}

TEST(NetFault, DropAndDelayStreamsAreSeedDeterministic) {
    const fault::NetFaultConfig config{
        .drop_p = 0.3, .delay_p = 0.3, .delay_s = 0.004, .seed = 99};
    fault::NetFaultInjector a(config);
    fault::NetFaultInjector b(config);
    for (int i = 0; i < 200; ++i) {
        const auto va = a.on_frame("router", "node0", 1);
        const auto vb = b.on_frame("router", "node0", 1);
        EXPECT_EQ(va.dropped, vb.dropped);
        EXPECT_EQ(va.extra_delay_s, vb.extra_delay_s);
    }
    EXPECT_GT(a.frames_dropped(), 0U);
    EXPECT_GT(a.delays_injected(), 0U);
}

TEST(NetFault, CertainDropDropsEverything) {
    fault::NetFaultInjector net({.drop_p = 1.0});
    for (int i = 0; i < 16; ++i) {
        EXPECT_TRUE(net.on_frame("a", "b", 1).dropped);
    }
}

// ---------------------------------------------------------------------------
// Router + Node integration (shared ManualClock, real models)

/// The profiling campaign is identical for every test, so run it once.
const cluster::ModelBundle& shared_bundle() {
    static const cluster::ModelBundle bundle =
        cluster::build_model_bundle({nn::zoo::simple()}, {1, 4, 16});
    return bundle;
}

serve::ServerConfig test_server_config() {
    serve::ServerConfig config;
    config.workers = 1;
    config.queue_capacity = 256;
    return config;
}

struct ClusterWorld {
    ManualClock clock;
    fault::NetFaultInjector net;
    std::unique_ptr<cluster::Transport> transport;
    std::vector<std::unique_ptr<cluster::Node>> nodes;
    std::unique_ptr<cluster::Router> router;
    workload::SyntheticSource source{23};

    explicit ClusterWorld(std::size_t n_nodes, cluster::RouterConfig rc = {},
                          fault::NetFaultConfig nc = {})
        : net(nc, &clock) {
        transport = std::make_unique<cluster::Transport>(
            clock, cluster::TransportConfig{}, &net);
        for (std::size_t i = 0; i < n_nodes; ++i) {
            cluster::NodeConfig node_config;
            node_config.name = "node" + std::to_string(i);
            node_config.server = test_server_config();
            node_config.completion_poll_s = 0.0005;
            nodes.push_back(std::make_unique<cluster::Node>(
                node_config, shared_bundle(), clock, *transport));
        }
        rc.maintenance_poll_s = 0.0005;
        router = std::make_unique<cluster::Router>(clock, *transport, rc);
        for (const auto& node : nodes) {
            router->add_node(node->name(), node->models());
        }
    }

    ~ClusterWorld() { shutdown(); }

    /// Teardown order matters: the router and transport must quiesce before
    /// any node (its handler) is destroyed.
    void shutdown() {
        if (router) router->stop();
        if (transport) transport->stop();
        for (auto& node : nodes) node->stop();
    }

    std::future<cluster::ClusterResponse> submit(
        sched::Policy policy = sched::Policy::kMaxThroughput) {
        serve::InferenceRequest request;
        request.model_name = "simple";
        request.payload = source.next_batch(4, 4);
        request.policy = policy;
        return router->submit(std::move(request));
    }

    /// Advance the simulated clock only while the fleet makes no progress,
    /// so sim time stays decoupled from how long the compute takes in wall
    /// time. Returns false if `target` terminals never arrive within the
    /// simulated budget.
    bool drive(std::uint64_t target, double step = 0.002, double budget_s = 30.0) {
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

TEST(ClusterServing, SingleNodeRoundTrip) {
    ClusterWorld world(1);
    auto future = world.submit();
    ASSERT_TRUE(world.drive(1));
    const cluster::ClusterResponse response = future.get();
    ASSERT_TRUE(response.ok()) << response.error;
    EXPECT_EQ(response.node_name, "node0");
    EXPECT_FALSE(response.device_name.empty());
    EXPECT_FALSE(response.outputs.empty());
    EXPECT_GT(response.end_time_s, 0.0);
    EXPECT_EQ(response.attempts, 1U);
    EXPECT_TRUE(world.router->counters().balanced());
}

TEST(ClusterServing, LeastLoadedSpreadsAcrossNodes) {
    cluster::RouterConfig rc;
    rc.policy = cluster::RoutePolicy::kLeastLoaded;
    ClusterWorld world(3, rc);
    std::vector<std::future<cluster::ClusterResponse>> futures;
    for (int i = 0; i < 24; ++i) futures.push_back(world.submit());
    ASSERT_TRUE(world.drive(24));
    std::set<std::string> served;
    for (auto& f : futures) {
        const auto response = f.get();
        ASSERT_TRUE(response.ok()) << response.error;
        served.insert(response.node_name);
    }
    EXPECT_EQ(served.size(), 3U) << "least-loaded left a node idle";
    EXPECT_TRUE(world.router->counters().balanced());
}

TEST(ClusterServing, ConsistentHashServesAndBalances) {
    cluster::RouterConfig rc;
    rc.policy = cluster::RoutePolicy::kConsistentHash;
    ClusterWorld world(3, rc);
    std::vector<std::future<cluster::ClusterResponse>> futures;
    for (int i = 0; i < 32; ++i) futures.push_back(world.submit());
    ASSERT_TRUE(world.drive(32));
    std::set<std::string> served;
    for (auto& f : futures) {
        const auto response = f.get();
        ASSERT_TRUE(response.ok()) << response.error;
        served.insert(response.node_name);
    }
    // 32 ids over 64 vnodes/node: every node should own some keys.
    EXPECT_GT(served.size(), 1U);
    EXPECT_TRUE(world.router->counters().balanced());
}

TEST(ClusterServing, UnplacedModelFailsFast) {
    ClusterWorld world(1);
    serve::InferenceRequest request;
    request.model_name = "mnist_small";  // real model, no replica placement
    request.payload = world.source.next_batch(4, 784);
    auto future = world.router->submit(std::move(request));
    const auto response = future.get();  // resolves without driving: no send
    EXPECT_EQ(response.status, serve::RequestStatus::kFailed);
    EXPECT_NE(response.error.find("no healthy replica"), std::string::npos);
    EXPECT_TRUE(world.router->counters().balanced());
}

TEST(ClusterServing, NodeRefusesUnknownModelWithoutUB) {
    ClusterWorld world(1);
    // The router believes node0 hosts "ghost"; the node must refuse it
    // gracefully and the client must see a clean kFailed.
    world.router->add_node("node0", {"ghost"});
    serve::InferenceRequest request;
    request.model_name = "ghost";
    request.payload = world.source.next_batch(2, 4);
    auto future = world.router->submit(std::move(request));
    ASSERT_TRUE(world.drive(1));
    const auto response = future.get();
    EXPECT_EQ(response.status, serve::RequestStatus::kFailed);
    EXPECT_NE(response.error.find("unknown model"), std::string::npos);
    EXPECT_GE(world.nodes[0]->frames_refused(), 1U);
    EXPECT_TRUE(world.router->counters().balanced());
}

TEST(ClusterServing, TimeoutReroutesToSurvivingReplica) {
    cluster::RouterConfig rc;
    rc.request_timeout_s = 0.05;
    rc.max_attempts = 3;
    ClusterWorld world(2, rc);
    // node0 wins the idle tie-break; kill it so the first send vanishes.
    world.net.kill_node("node0");
    auto future = world.submit();
    ASSERT_TRUE(world.drive(1));
    const auto response = future.get();
    ASSERT_TRUE(response.ok()) << response.error;
    EXPECT_EQ(response.node_name, "node1");
    EXPECT_EQ(response.attempts, 2U);
    const auto counters = world.router->counters();
    EXPECT_GE(counters.timeouts, 1U);
    EXPECT_GE(counters.rerouted, 1U);
    EXPECT_TRUE(counters.balanced());
}

TEST(ClusterServing, UnreachableFleetFailsAfterMaxAttempts) {
    cluster::RouterConfig rc;
    rc.request_timeout_s = 0.05;
    rc.max_attempts = 2;
    ClusterWorld world(1, rc);
    world.net.kill_node("node0");
    auto future = world.submit();
    ASSERT_TRUE(world.drive(1));
    const auto response = future.get();
    EXPECT_EQ(response.status, serve::RequestStatus::kFailed);
    EXPECT_NE(response.error.find("unreachable"), std::string::npos);
    EXPECT_TRUE(world.router->counters().balanced());
}

TEST(ClusterServing, HedgeCompletesOnSecondaryWhenPrimaryIsDead) {
    cluster::RouterConfig rc;
    rc.request_timeout_s = 0.2;
    rc.hedge_timeout_s = 0.02;
    ClusterWorld world(2, rc);
    world.net.kill_node("node0");  // the idle tie-break primary
    auto future = world.submit();
    ASSERT_TRUE(world.drive(1));
    const auto response = future.get();
    ASSERT_TRUE(response.ok()) << response.error;
    EXPECT_EQ(response.node_name, "node1");
    EXPECT_TRUE(response.hedged);
    EXPECT_GE(world.router->counters().hedges, 1U);
    EXPECT_TRUE(world.router->counters().balanced());
}

TEST(ClusterServing, StopCompletesPendingAsShutdownAndBalances) {
    cluster::RouterConfig rc;
    rc.request_timeout_s = 30.0;  // nothing expires on its own
    ClusterWorld world(1, rc);
    world.net.kill_node("node0");  // responses can never arrive
    std::vector<std::future<cluster::ClusterResponse>> futures;
    for (int i = 0; i < 8; ++i) futures.push_back(world.submit());
    EXPECT_EQ(world.router->pending(), 8U);
    world.router->stop();
    for (auto& f : futures) {
        EXPECT_EQ(f.get().status, serve::RequestStatus::kShutdown);
    }
    const auto counters = world.router->counters();
    EXPECT_EQ(counters.shutdown, 8U);
    EXPECT_TRUE(counters.balanced());
}

TEST(ClusterServing, MetricsRegistryCarriesClusterSeries) {
    ClusterWorld world(1);
    auto future = world.submit();
    ASSERT_TRUE(world.drive(1));
    (void)future.get();
    bool found_submitted = false;
    for (const auto& series : world.router->metrics().series()) {
        if (series.name == "mw_cluster_submitted_total") {
            found_submitted = true;
            EXPECT_EQ(series.counter->value(), 1U);
        }
    }
    EXPECT_TRUE(found_submitted);
}

// ---------------------------------------------------------------------------
// Lock-rank death tests: the cluster tier sits strictly above serve in the
// global order, so crossing the boundary the wrong way aborts.

#if defined(MW_LOCK_RANK_CHECKS)

TEST(ClusterLockRankDeathTest, ServeThenClusterNodeAbortsNamingBothRanks) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Mutex admission_mu(LockRank::kAdmission);
    Mutex node_mu(LockRank::kClusterNode);
    EXPECT_DEATH(
        {
            const MutexLock admission(admission_mu);
            const MutexLock node(node_mu);
        },
        "lock-rank violation: acquiring .cluster-node. .rank 6. "
        "while already holding .admission. .rank 60.");
}

TEST(ClusterLockRankDeathTest, TransportThenRouterAbortsNamingBothRanks) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Mutex transport_mu(LockRank::kClusterTransport);
    Mutex router_mu(LockRank::kClusterRouter);
    EXPECT_DEATH(
        {
            const MutexLock transport(transport_mu);
            const MutexLock router(router_mu);
        },
        "lock-rank violation: acquiring .cluster-router. .rank 2. "
        "while already holding .cluster-transport. .rank 4.");
}

#endif  // MW_LOCK_RANK_CHECKS

}  // namespace
