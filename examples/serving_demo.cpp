// Minimal serving demo (and the CI smoke test for mw::serve + mw::obs):
// stand up a Server over the trained scheduler, fire a few hundred
// mixed-policy requests from concurrent clients with a TraceRecorder
// installed, print the per-policy stats, and export the request-path trace
// (Chrome trace_event JSON — open serving_demo.trace.json in
// chrome://tracing or https://ui.perfetto.dev) plus the metrics registry as
// Prometheus text and CSV. Artifacts land in the build tree by default;
// set MW_DEMO_OUTPUT_DIR to redirect. Exits 0 only when the request accounting balances
// AND the trace contains every pipeline phase correlated by request id.
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "demo_output.hpp"

#include "common/format.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "ml/random_forest.hpp"
#include "nn/zoo.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"
#include "sched/scheduler_dataset.hpp"
#include "serve/server.hpp"
#include "workload/stream.hpp"

using namespace mw;

int main() {
    // World: standard testbed, two deployed models, trained device predictor.
    auto registry = device::DeviceRegistry::standard_testbed();
    sched::Dispatcher dispatcher(registry);
    dispatcher.register_model(nn::zoo::simple(), 7);
    dispatcher.register_model(nn::zoo::mnist_small(), 7);
    dispatcher.deploy_all();

    std::printf("profiling + training the scheduler...\n");
    const auto dataset = sched::build_scheduler_dataset(
        registry, {nn::zoo::simple(), nn::zoo::mnist_small()}, {.batches = {8, 64, 512}});
    sched::DevicePredictor predictor(
        std::make_unique<ml::RandomForest>(ml::ForestConfig{.n_estimators = 20, .seed = 2}),
        dataset.device_names);
    predictor.fit(dataset);
    sched::OnlineScheduler scheduler(dispatcher, std::move(predictor), dataset,
                                     {.explore_probability = 0.0});
    for (device::Device* dev : registry.devices()) dev->reset_timeline();

    // Serving front-end: 3 workers, dynamic batching, SLO-aware shedding.
    WallClock clock;
    serve::ServerConfig config;
    config.workers = 3;
    config.queue_capacity = 128;
    config.admission = {.policy = serve::BackpressurePolicy::kDeadlineShed,
                        .default_slo_s = 0.5};
    config.batching = {.enabled = true, .max_requests = 8, .max_samples = 4096,
                       .max_wait_s = 0.002};
    obs::TraceRecorder recorder;
    obs::TraceRecorder::install(&recorder);
    serve::Server server(scheduler, dispatcher, clock, config);

    // Four concurrent clients, 100 requests each, policies round-robin.
    constexpr std::size_t kClients = 4;
    constexpr std::size_t kPerClient = 100;
    const char* models[] = {"simple", "mnist-small"};
    const std::size_t widths[] = {4, 784};
    ThreadPool clients(kClients);
    std::vector<std::future<void>> client_futures;
    for (std::size_t c = 0; c < kClients; ++c) {
        client_futures.push_back(clients.submit([&, c] {
            workload::SyntheticSource source(100 + c);
            for (std::size_t i = 0; i < kPerClient; ++i) {
                const std::size_t m = (c + i) % 2;
                auto future = server.submit(serve::InferenceRequest{
                    models[m], source.next_batch(4, widths[m]),
                    static_cast<sched::Policy>(i % serve::kPolicyLanes)});
                const serve::Response response = future.get();  // closed-loop client
                if (!response.ok() && response.status != serve::RequestStatus::kShedDeadline) {
                    std::printf("unexpected outcome: %s %s\n",
                                serve::status_label(response.status),
                                response.error.c_str());
                }
            }
        }));
    }
    for (auto& f : client_futures) f.get();
    server.stop();
    obs::TraceRecorder::install(nullptr);

    const auto snapshot = server.stats();
    std::printf("\nper-policy serving stats (%zu requests from %zu clients):\n",
                kClients * kPerClient, kClients);
    std::printf("  %-16s %9s %9s %6s %9s %9s %9s\n", "policy", "completed", "shed",
                "batch", "queue p95", "exec p95", "energy J");
    for (std::size_t lane = 0; lane < serve::kPolicyLanes; ++lane) {
        const auto policy = static_cast<sched::Policy>(lane);
        const auto& p = snapshot.of(policy);
        const auto& c = p.counters;
        const double mean_batch =
            c.batches_executed > 0 ? static_cast<double>(c.coalesced_requests) /
                                         static_cast<double>(c.batches_executed)
                                   : 0.0;
        std::printf("  %-16s %9zu %9zu %6.2f %9s %9s %9.2f\n",
                    sched::policy_name(policy).c_str(), c.completed, c.shed, mean_batch,
                    format_duration(p.queue_p95_s).c_str(),
                    format_duration(p.execute_p95_s).c_str(), c.energy_j);
    }
    const auto totals = snapshot.totals();
    std::printf("\ntotals: %zu submitted, %zu completed, %zu shed, %zu rejected\n",
                totals.submitted, totals.completed, totals.shed,
                totals.rejected_full + totals.evicted);
    const bool accounted = totals.submitted ==
                           totals.completed + totals.rejected_full + totals.evicted +
                               totals.shed + totals.failed + totals.shutdown;
    std::printf("request accounting %s\n", accounted ? "balanced" : "IMBALANCED");

    // --- observability exports ------------------------------------------
    bool trace_ok = true;
#if defined(MW_OBS_ENABLED)
    const auto spans = recorder.snapshot();
    std::set<std::string> phases_seen;
    std::set<std::uint64_t> correlated_ids;
    for (const auto& span : spans) {
        phases_seen.insert(obs::phase_name(span.phase));
        if (span.request_id != 0) correlated_ids.insert(span.request_id);
    }
    std::printf("\ntrace: %zu spans, %zu threads, %zu dropped; %zu phases, "
                "%zu request ids\n",
                spans.size(), recorder.thread_count(), recorder.dropped(),
                phases_seen.size(), correlated_ids.size());
    trace_ok =
        phases_seen.size() == obs::kRequestPathPhaseCount && !correlated_ids.empty();
    if (!trace_ok) {
        std::printf("trace INCOMPLETE: expected all %zu request-path phases\n",
                    obs::kRequestPathPhaseCount);
    }
    const std::string trace_path = demo::output_path("serving_demo.trace.json");
    const std::string prom_path = demo::output_path("serving_demo.metrics.prom");
    const std::string csv_path = demo::output_path("serving_demo.metrics.csv");
    if (!obs::write_chrome_trace_file(trace_path, recorder) ||
        !obs::write_prometheus_file(prom_path, server.metrics()) ||
        !obs::write_csv_file(csv_path, server.metrics())) {
        std::printf("failed to write observability exports\n");
        trace_ok = false;
    } else {
        std::printf("wrote %s (chrome://tracing), %s, %s\n", trace_path.c_str(),
                    prom_path.c_str(), csv_path.c_str());
    }
#else
    std::printf("\n(tracing hooks compiled out: MW_OBS=OFF)\n");
#endif
    return accounted && trace_ok ? 0 : 1;
}
