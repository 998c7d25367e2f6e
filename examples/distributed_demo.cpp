// Distributed serving demo (and the CI smoke test for mw::cluster): stand up
// a 4-node fleet over the simulated transport, route a mixed load through
// the router with a TraceRecorder installed, partition one node away
// mid-run and let the per-node breaker isolate it, then heal and watch the
// half-open probe re-admit it. Prints the router's accounting and the
// per-node frame counters, and exports the trace (distributed_demo.trace.json
// — open in chrome://tracing or https://ui.perfetto.dev) plus the
// mw_cluster_* metrics as Prometheus text. Artifacts land in the build tree
// by default; set MW_DEMO_OUTPUT_DIR to redirect. Exits 0 only when the terminal
// accounting balances, the healed node actually serves again, AND the trace
// contains the cluster phases (route, serialize, link, remote-exec)
// correlated by request id.
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "demo_output.hpp"

#include "cluster/node.hpp"
#include "cluster/router.hpp"
#include "cluster/transport.hpp"
#include "common/timer.hpp"
#include "fault/netfault.hpp"
#include "nn/zoo.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "workload/stream.hpp"

using namespace mw;

namespace {

struct Demo {
    ManualClock clock;
    fault::NetFaultInjector net;
    std::unique_ptr<cluster::Transport> transport;
    std::vector<std::unique_ptr<cluster::Node>> nodes;
    std::unique_ptr<cluster::Router> router;
    workload::SyntheticSource source{5};

    explicit Demo(const cluster::ModelBundle& bundle) : net({}, &clock) {
        transport = std::make_unique<cluster::Transport>(
            clock, cluster::TransportConfig{}, &net);
        for (std::size_t i = 0; i < 4; ++i) {
            cluster::NodeConfig config;
            config.name = "node" + std::to_string(i);
            config.server.workers = 2;
            config.server.queue_capacity = 256;
            config.completion_poll_s = 0.0005;
            nodes.push_back(std::make_unique<cluster::Node>(config, bundle,
                                                            clock, *transport));
        }
        cluster::RouterConfig rc;
        rc.policy = cluster::RoutePolicy::kLeastLoaded;
        rc.request_timeout_s = 0.25;
        rc.max_attempts = 3;
        rc.maintenance_poll_s = 0.0005;
        rc.health.consecutive_failures_to_open = 2;
        rc.health.min_observations = 2;
        rc.health.cooldown_s = 0.5;
        rc.health.probe_interval_s = 0.01;
        router = std::make_unique<cluster::Router>(clock, *transport, rc);
        for (const auto& node : nodes) {
            router->add_node(node->name(), node->models());
        }
    }

    ~Demo() {
        router->stop();
        transport->stop();
        for (auto& node : nodes) node->stop();
    }

    std::future<cluster::ClusterResponse> submit(std::size_t i) {
        serve::InferenceRequest request;
        request.model_name = "simple";
        request.payload = source.next_batch(4, 4);
        request.policy = static_cast<sched::Policy>(i % serve::kPolicyLanes);
        return router->submit(std::move(request));
    }

    /// Advance the simulated clock only while the fleet makes no progress.
    bool drive(std::uint64_t target) {
        const double limit = clock.now() + 60.0;
        std::uint64_t last = router->counters().terminal();
        while (router->counters().terminal() < target) {
            if (clock.now() > limit) return false;
            sleep_for_seconds(0.0003);
            const std::uint64_t done = router->counters().terminal();
            if (done == last) clock.advance(0.002);
            last = done;
        }
        return true;
    }
};

}  // namespace

int main() {
    std::printf("profiling + building the shared model bundle...\n");
    const cluster::ModelBundle bundle =
        cluster::build_model_bundle({nn::zoo::simple()}, {1, 4, 16});

    obs::TraceRecorder recorder({.ring_capacity = 1 << 16});
    obs::TraceRecorder::install(&recorder);
    Demo demo(bundle);

    // --- Act 1: mixed load across the healthy fleet -----------------------
    std::printf("act 1: 40 requests across 4 nodes...\n");
    std::vector<std::future<cluster::ClusterResponse>> futures;
    for (std::size_t i = 0; i < 40; ++i) futures.push_back(demo.submit(i));
    bool ok = demo.drive(40);

    // --- Act 2: partition node3 away under load ---------------------------
    std::printf("act 2: partition node3 away, 40 more requests...\n");
    demo.net.partition({"router", "node0", "node1", "node2"});
    for (std::size_t i = 0; i < 40; ++i) futures.push_back(demo.submit(i));
    ok = ok && demo.drive(80);
    const auto node3_state = demo.router->health().state("node3");
    std::printf("  node3 breaker: %s\n",
                node3_state == fault::BreakerState::kOpen ? "open" : "NOT OPEN");

    // --- Act 3: heal and re-admit -----------------------------------------
    std::printf("act 3: heal the partition, wait out the cooldown, probe...\n");
    demo.net.heal_partition();
    demo.clock.advance(0.6);  // past the breaker cooldown
    bool node3_served = false;
    for (int round = 0; round < 40 && !node3_served; ++round) {
        std::vector<std::future<cluster::ClusterResponse>> probe;
        for (std::size_t i = 0; i < 4; ++i) probe.push_back(demo.submit(i));
        ok = ok && demo.drive(demo.router->counters().submitted);
        for (auto& f : probe) {
            node3_served |= f.get().node_name == "node3";
        }
    }
    std::printf("  node3 %s after heal\n",
                node3_served ? "re-admitted and serving" : "NEVER RE-ADMITTED");

    std::size_t completed = 0;
    for (auto& f : futures) {
        if (f.valid() && f.wait_for(std::chrono::seconds(0)) ==
                             std::future_status::ready) {
            completed += f.get().ok() ? 1 : 0;
        }
    }

    const auto counters = demo.router->counters();
    std::printf("\nrouter accounting: %llu submitted, %llu completed, %llu "
                "failed, %llu timeouts, %llu rerouted, %llu hedges\n",
                static_cast<unsigned long long>(counters.submitted),
                static_cast<unsigned long long>(counters.completed),
                static_cast<unsigned long long>(counters.failed),
                static_cast<unsigned long long>(counters.timeouts),
                static_cast<unsigned long long>(counters.rerouted),
                static_cast<unsigned long long>(counters.hedges));
    const bool balanced = counters.balanced();
    std::printf("terminal accounting %s\n",
                balanced ? "balanced" : "IMBALANCED");
    for (const auto& node : demo.nodes) {
        std::printf("  %s: %llu frames accepted, %llu refused\n",
                    node->name().c_str(),
                    static_cast<unsigned long long>(node->frames_accepted()),
                    static_cast<unsigned long long>(node->frames_refused()));
    }

    // --- observability exports --------------------------------------------
    bool trace_ok = true;
#if defined(MW_OBS_ENABLED)
    obs::TraceRecorder::install(nullptr);
    const auto spans = recorder.snapshot();
    std::set<std::string> phases_seen;
    std::set<std::uint64_t> correlated_ids;
    for (const auto& span : spans) {
        phases_seen.insert(obs::phase_name(span.phase));
        if (span.request_id != 0) correlated_ids.insert(span.request_id);
    }
    std::printf("\ntrace: %zu spans, %zu phases, %zu request ids\n",
                spans.size(), phases_seen.size(), correlated_ids.size());
    for (const char* phase : {"route", "serialize", "link", "remote-exec"}) {
        if (phases_seen.count(phase) == 0) {
            std::printf("trace INCOMPLETE: missing cluster phase '%s'\n", phase);
            trace_ok = false;
        }
    }
    trace_ok = trace_ok && !correlated_ids.empty();
    const std::string trace_path = demo::output_path("distributed_demo.trace.json");
    const std::string prom_path = demo::output_path("distributed_demo.metrics.prom");
    if (!obs::write_chrome_trace_file(trace_path, recorder) ||
        !obs::write_prometheus_file(prom_path, demo.router->metrics())) {
        std::printf("failed to write observability exports\n");
        trace_ok = false;
    } else {
        std::printf("wrote %s (chrome://tracing), %s\n", trace_path.c_str(),
                    prom_path.c_str());
    }
#else
    std::printf("\n(tracing hooks compiled out: MW_OBS=OFF)\n");
#endif

    const bool success = ok && balanced && node3_served &&
                         node3_state == fault::BreakerState::kOpen && trace_ok;
    std::printf("\n%s\n", success ? "distributed demo OK" : "distributed demo FAILED");
    return success ? 0 : 1;
}
