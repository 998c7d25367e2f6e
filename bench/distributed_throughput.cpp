// Distributed serving throughput bench: an mw::cluster fleet on a shared
// simulated clock.
//
// Part 1 sweeps fleet size at equal per-node workers and reports aggregate
// sustained QPS measured on the simulated device timeline — each node owns
// its own DeviceRegistry, so capacity scales with node count regardless of
// how many host cores the bench itself gets (CI runs on 1). QPS here is
// completed requests divided by the fleet makespan: the largest per-device
// busy-time sum on any node, i.e. when the slowest replica finished its
// share of the window.
//
// Part 2 is the degraded window: kill 1 node of 8 mid-run via the network
// fault injector. In-flight frames to the dead node time out, the router
// reroutes them, the per-node breaker opens, and the window must sustain
// >= 80% of the healthy aggregate with the router's terminal accounting
// exactly balanced.
//
// Flags: --quick shortens every window (the CI gate mode); --json PATH
// writes the headline numbers as BENCH_distributed.json for
// tools/bench-compare.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/node.hpp"
#include "cluster/router.hpp"
#include "cluster/transport.hpp"
#include "common/timer.hpp"
#include "fault/netfault.hpp"
#include "nn/zoo.hpp"
#include "workload/stream.hpp"

using namespace mw;

namespace {

struct Fleet {
    ManualClock clock;
    fault::NetFaultInjector net;
    std::unique_ptr<cluster::Transport> transport;
    std::vector<std::unique_ptr<cluster::Node>> nodes;
    std::unique_ptr<cluster::Router> router;
    workload::SyntheticSource source{23};

    Fleet(std::size_t n_nodes, const cluster::ModelBundle& bundle,
          std::size_t workers_per_node, cluster::RouterConfig rc)
        : net({}, &clock) {
        transport = std::make_unique<cluster::Transport>(
            clock, cluster::TransportConfig{}, &net);
        for (std::size_t i = 0; i < n_nodes; ++i) {
            cluster::NodeConfig node_config;
            node_config.name = "node" + std::to_string(i);
            node_config.server.workers = workers_per_node;
            node_config.server.queue_capacity = 1024;
            // Batch=1 keeps the busy-time accounting exact: a coalesced
            // batch reports its full latency once per member, which would
            // overcount device busy time by a timing-dependent factor.
            node_config.server.batching.enabled = false;
            node_config.completion_poll_s = 0.0005;
            nodes.push_back(std::make_unique<cluster::Node>(
                node_config, bundle, clock, *transport));
        }
        rc.maintenance_poll_s = 0.0005;
        router = std::make_unique<cluster::Router>(clock, *transport, rc);
        for (const auto& node : nodes) {
            router->add_node(node->name(), node->models());
        }
    }

    ~Fleet() {
        router->stop();
        transport->stop();
        for (auto& node : nodes) node->stop();
    }

    /// Pin every device in the fleet to its warmed-up clock state, so the
    /// measured windows compare devices at the paper's "warmed-up" operating
    /// point instead of wherever the DVFS ramp happens to sit.
    void force_warm() {
        for (auto& node : nodes) {
            for (device::Device* dev : node->registry().devices()) {
                dev->force_warm();
            }
        }
    }

    /// Advance the simulated clock only while the fleet makes no progress
    /// and no node holds a request (nothing queued, nothing executing): sim
    /// time stays decoupled from how long the host takes to compute, so a
    /// busy host cannot expire attempts at nodes that are still serving
    /// them. A killed node drains what it holds and then counts as idle.
    bool drive(std::uint64_t target, double step = 0.002, double budget_s = 120.0) {
        const double limit = clock.now() + budget_s;
        std::uint64_t last = router->counters().terminal();
        while (router->counters().terminal() < target) {
            if (clock.now() > limit) return false;
            sleep_for_seconds(0.0003);
            const std::uint64_t done = router->counters().terminal();
            if (done == last && servers_idle()) clock.advance(step);
            last = done;
        }
        return true;
    }

    [[nodiscard]] bool servers_idle() const {
        for (const auto& node : nodes) {
            if (node->server().pool_live() != 0) return false;
        }
        return true;
    }
};

struct WindowResult {
    std::size_t offered = 0;
    std::size_t completed = 0;
    double makespan_s = 0.0;  ///< slowest node's device busy-time for the window
    double qps = 0.0;         ///< completed / makespan
    std::size_t nodes_used = 0;
    bool balanced = false;
};

/// Closed-loop load: submit `n_requests` with a bounded outstanding window
/// (so the queue depth — and with it the simulated time a response takes —
/// stays independent of the window size), drive the fleet to completion,
/// and measure aggregate service throughput on the simulated device
/// timeline.
WindowResult run_window(Fleet& fleet, std::size_t n_requests) {
    const std::uint64_t already_terminal = fleet.router->counters().terminal();
    const std::size_t max_outstanding = 4 * fleet.nodes.size();
    std::vector<std::future<cluster::ClusterResponse>> futures;
    futures.reserve(n_requests);
    for (std::size_t i = 0; i < n_requests; ++i) {
        if (i >= max_outstanding &&
            !fleet.drive(already_terminal + i - max_outstanding + 1)) {
            std::fprintf(stderr, "fleet stalled while pacing the window\n");
            std::exit(1);
        }
        serve::InferenceRequest request;
        request.model_name = "simple";
        request.payload = fleet.source.next_batch(8, 4);
        request.policy = sched::Policy::kMaxThroughput;
        futures.push_back(fleet.router->submit(std::move(request)));
    }
    if (!fleet.drive(already_terminal + n_requests)) {
        std::fprintf(stderr, "fleet stalled: %llu terminal of %zu offered\n",
                     static_cast<unsigned long long>(
                         fleet.router->counters().terminal() - already_terminal),
                     n_requests);
        std::exit(1);
    }

    WindowResult out;
    out.offered = n_requests;
    // busy[node][device] = sum of pure device service time this window
    // (end - start on the device timeline; execute_s would also count the
    // device-queue wait, which depends on dispatch interleaving). A node's
    // share of the window is done when its busiest device is done (devices
    // within a node run in parallel on the timeline), and the window is done
    // when the slowest node is.
    std::map<std::string, std::map<std::string, double>> busy;
    for (auto& f : futures) {
        const cluster::ClusterResponse response = f.get();
        if (!response.ok()) continue;
        ++out.completed;
        busy[response.node_name][response.device_name] += response.service_s;
    }
    out.nodes_used = busy.size();
    if (std::getenv("MW_BENCH_DEBUG") != nullptr) {
        for (const auto& [node, devices] : busy) {
            std::printf("    %s:", node.c_str());
            for (const auto& [device, seconds] : devices) {
                std::printf(" %s=%.0fus", device.c_str(), seconds * 1e6);
            }
            std::printf("\n");
        }
    }
    for (const auto& [node, devices] : busy) {
        double node_busy = 0.0;
        for (const auto& [device, seconds] : devices) {
            if (seconds > node_busy) node_busy = seconds;
        }
        if (node_busy > out.makespan_s) out.makespan_s = node_busy;
    }
    out.qps = out.makespan_s > 0.0
                  ? static_cast<double>(out.completed) / out.makespan_s
                  : 0.0;
    out.balanced = fleet.router->counters().balanced();
    return out;
}

struct BenchSummary {
    double single_node_qps = 0.0;
    double sustained_qps = 0.0;  ///< 8-node aggregate (the gate headline)
    double scaling_8x = 0.0;     ///< 8-node / 1-node aggregate QPS
    double healthy_qps = 0.0;
    double killed_qps = 0.0;
    double killed_ratio = 0.0;  ///< killed / healthy (target: >= 0.80)
};

void write_json(const char* path, const BenchSummary& s) {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path);
        std::exit(1);
    }
    std::fprintf(f,
                 "{\n"
                 "  \"sustained_qps\": %.3f,\n"
                 "  \"single_node_qps\": %.3f,\n"
                 "  \"scaling_8x\": %.3f,\n"
                 "  \"degraded\": {\n"
                 "    \"healthy_qps\": %.3f,\n"
                 "    \"killed_qps\": %.3f,\n"
                 "    \"killed_ratio\": %.4f\n"
                 "  }\n"
                 "}\n",
                 s.sustained_qps, s.single_node_qps, s.scaling_8x, s.healthy_qps,
                 s.killed_qps, s.killed_ratio);
    std::fclose(f);
    std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    const char* json_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--quick] [--json PATH]\n", argv[0]);
            return 2;
        }
    }
    const std::size_t requests_per_node = quick ? 32 : 64;
    const std::size_t workers_per_node = 2;

    std::printf("building shared model bundle (profiling campaign)...\n");
    const cluster::ModelBundle bundle =
        cluster::build_model_bundle({nn::zoo::simple()}, {1, 8, 64});

    // --- Part 1: fleet-size sweep at equal per-node workers ---------------
    cluster::RouterConfig rc;
    rc.policy = cluster::RoutePolicy::kLeastLoaded;
    rc.request_timeout_s = 2.0;  // nothing should time out in a healthy fleet

    std::printf("\nfleet scaling: %zu requests/node, %zu workers/node, "
                "least-loaded routing\n",
                requests_per_node, workers_per_node);
    std::printf("  %6s  %9s  %10s  %12s  %8s  %9s\n", "nodes", "requests",
                "completed", "makespan", "QPS", "scaling");
    BenchSummary summary;
    for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                std::size_t{8}}) {
        Fleet fleet(n, bundle, workers_per_node, rc);
        // Discarded warm-up window (primes the admission estimators and the
        // scheduler's online state), then pin the DVFS ramp: cold requests
        // run up to ~7x slower and would swamp these short windows.
        (void)run_window(fleet, requests_per_node * n);
        fleet.force_warm();
        const WindowResult w = run_window(fleet, requests_per_node * n);
        if (!w.balanced) {
            std::fprintf(stderr, "accounting imbalance at %zu nodes\n", n);
            return 1;
        }
        if (n == 1) summary.single_node_qps = w.qps;
        if (n == 8) summary.sustained_qps = w.qps;
        std::printf("  %6zu  %9zu  %10zu  %10.2fms  %8.0f  %8.2fx\n", n,
                    w.offered, w.completed, w.makespan_s * 1e3, w.qps,
                    summary.single_node_qps > 0.0 ? w.qps / summary.single_node_qps
                                                  : 0.0);
    }
    summary.scaling_8x = summary.single_node_qps > 0.0
                             ? summary.sustained_qps / summary.single_node_qps
                             : 0.0;
    std::printf("  8-node scaling: %.2fx (target: >= 6x)%s\n", summary.scaling_8x,
                summary.scaling_8x >= 6.0 ? "" : "  ** BELOW TARGET **");

    // --- Part 2: kill 1 of 8 mid-run ---------------------------------------
    // Same fleet shape; a healthy window, then the network fault injector
    // takes node0 dark and a second window runs through timeout -> reroute ->
    // breaker isolation. Service capacity drops by one replica (7/8 = 87.5%),
    // which must stay above the 80% floor.
    cluster::RouterConfig degraded_rc = rc;
    degraded_rc.request_timeout_s = 0.03;
    degraded_rc.max_attempts = 3;
    degraded_rc.health.consecutive_failures_to_open = 2;
    degraded_rc.health.min_observations = 2;
    degraded_rc.health.cooldown_s = 10.0;

    std::printf("\ndegraded window: kill 1 of 8 nodes mid-run\n");
    Fleet fleet(8, bundle, workers_per_node, degraded_rc);
    (void)run_window(fleet, requests_per_node * 8);  // warm-up, discarded
    fleet.force_warm();
    const WindowResult healthy = run_window(fleet, requests_per_node * 8);
    summary.healthy_qps = healthy.qps;
    fleet.net.kill_node("node0");
    fleet.force_warm();
    const WindowResult killed = run_window(fleet, requests_per_node * 8);
    summary.killed_qps = killed.qps;
    summary.killed_ratio =
        healthy.qps > 0.0 ? killed.qps / healthy.qps : 0.0;
    if (!killed.balanced) {
        std::fprintf(stderr, "accounting imbalance after node kill\n");
        return 1;
    }
    const auto counters = fleet.router->counters();
    std::printf("  healthy: %7.0f QPS on %zu nodes\n", healthy.qps,
                healthy.nodes_used);
    std::printf("  killed:  %7.0f QPS on %zu nodes  (%llu timeouts, %llu "
                "rerouted, accounting balanced)\n",
                killed.qps, killed.nodes_used,
                static_cast<unsigned long long>(counters.timeouts),
                static_cast<unsigned long long>(counters.rerouted));
    std::printf("  killed/healthy: %.2f (target: >= 0.80)%s\n",
                summary.killed_ratio,
                summary.killed_ratio >= 0.80 ? "" : "  ** BELOW TARGET **");

    if (json_path != nullptr) write_json(json_path, summary);
    return summary.scaling_8x >= 6.0 && summary.killed_ratio >= 0.80 ? 0 : 1;
}
