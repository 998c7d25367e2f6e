// Serving-layer throughput bench: open-loop arrivals against mw::serve.
//
// Part 1 sweeps offered load from below to past saturation on a compute-heavy
// model and shows the bounded queue shedding gracefully: sustained QPS
// plateaus, the excess is rejected explicitly, and queue-wait percentiles
// stay bounded instead of growing without limit.
//
// Part 2 holds the worker count fixed and toggles dynamic batching on a tiny
// model under max-rate arrivals, printing per-policy throughput / latency /
// energy. There the per-request serving cost (scheduler decision, dispatch
// bookkeeping, future completion) dominates, and coalescing amortises it
// across the batch — the real mechanism by which dynamic batching raises
// sustained QPS at equal workers.
//
// Part 3 repeats the max-rate run with a TraceRecorder installed and reports
// the sustained-QPS cost of recording every request-path span (budget: <5%).
//
// Part 4 is the degraded-mode bench: a resilient server under a hard device
// kill. Three closed-loop windows (healthy, killed, revived) show sustained
// QPS surviving the kill via breaker exclusion and recovering after the
// half-open re-probe. Its recovered/healthy ratio is printed against an
// advisory 0.70 target that nothing gates on (one short window on a shared
// host scatters it); the exit code does not depend on it.
//
// Part 5 is the zero-allocation ticket API (DESIGN.md §15): closed-loop
// ticket clients against the sharded work-stealing rings. Its QPS is the
// headline `sustained_qps` the CI gate compares.
//
// Flags: --quick shortens every window (the CI gate mode); --json PATH
// writes the headline numbers as BENCH_serving.json for tools/bench-compare;
// --contend runs only the ticket load, with more workers than hardware cores
// and a small reject-oldest queue (the TSan CI leg: producers evict lane
// heads while workers pop and steal the same rings).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/format.hpp"
#include "common/timer.hpp"
#include "fault/fault.hpp"
#include "fault/health.hpp"
#include "ml/random_forest.hpp"
#include "nn/zoo.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"
#include "sched/scheduler_dataset.hpp"
#include "serve/server.hpp"
#include "workload/stream.hpp"

using namespace mw;

namespace {

struct World {
    device::DeviceRegistry registry = device::DeviceRegistry::standard_testbed();
    sched::Dispatcher dispatcher{registry};
    std::unique_ptr<sched::OnlineScheduler> scheduler;

    World() {
        dispatcher.register_model(nn::zoo::simple(), 7);
        dispatcher.register_model(nn::zoo::mnist_small(), 7);
        dispatcher.deploy_all();
        const auto dataset = sched::build_scheduler_dataset(
            registry, {nn::zoo::simple(), nn::zoo::mnist_small()},
            {.batches = {8, 64, 512}});
        sched::DevicePredictor predictor(
            std::make_unique<ml::RandomForest>(
                ml::ForestConfig{.n_estimators = 20, .seed = 2}),
            dataset.device_names);
        predictor.fit(dataset);
        scheduler = std::make_unique<sched::OnlineScheduler>(
            dispatcher, std::move(predictor), dataset,
            sched::SchedulerConfig{.explore_probability = 0.0});
        for (device::Device* dev : registry.devices()) dev->reset_timeline();
    }
};

struct TrafficSpec {
    const char* model;
    std::size_t sample_elems;
    std::size_t samples_per_request;
    bool mixed_policies;
};

/// Pre-generated payload pool so the pacing thread only pays a memcpy.
std::vector<Tensor> make_payload_pool(const TrafficSpec& traffic, std::size_t count) {
    workload::SyntheticSource source(23);
    std::vector<Tensor> pool;
    pool.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        pool.push_back(source.next_batch(traffic.samples_per_request,
                                         traffic.sample_elems));
    }
    return pool;
}

struct LoadResult {
    serve::ServerSnapshot snapshot;
    double elapsed_s = 0.0;
    std::size_t offered = 0;
};

/// Open-loop load: arrivals are paced at `qps` regardless of completions
/// (catch-up pacing — a slow server cannot slow the clients down). A huge
/// `qps` degenerates into submit-as-fast-as-possible.
LoadResult run_load(World& world, const serve::ServerConfig& config,
                    const TrafficSpec& traffic, double qps, double duration_s) {
    WallClock clock;
    serve::Server server(*world.scheduler, world.dispatcher, clock, config);
    const auto pool = make_payload_pool(traffic, 64);

    std::vector<std::future<serve::Response>> futures;
    futures.reserve(static_cast<std::size_t>(qps < 1e6 ? qps * duration_s * 1.1 : 1e5));
    std::size_t offered = 0;
    const double start = clock.now();
    while (true) {
        const double now = clock.now() - start;
        if (now >= duration_s) break;
        const double target = static_cast<double>(offered) / qps;
        if (target > now) {
            sleep_for_seconds(target - now);
            continue;
        }
        const auto policy =
            traffic.mixed_policies
                ? static_cast<sched::Policy>(offered % serve::kPolicyLanes)
                : sched::Policy::kMaxThroughput;
        futures.push_back(server.submit(serve::InferenceRequest{
            traffic.model, Tensor(pool[offered % pool.size()]), policy}));
        ++offered;
    }
    server.stop();  // drains the queue, then resolves everything
    const double elapsed = clock.now() - start;
    for (auto& f : futures) f.get();
    return {server.stats(), elapsed, offered};
}

void print_sweep_row(double qps, const LoadResult& r) {
    const auto t = r.snapshot.totals();
    const auto& tp = r.snapshot.of(sched::Policy::kMaxThroughput);
    std::printf("  %8.0f  %9.0f  %9zu  %9zu  %10s  %10s  %10s\n", qps,
                static_cast<double>(t.completed) / r.elapsed_s, t.completed,
                t.rejected_full + t.evicted + t.shed,
                format_duration(tp.queue_p50_s).c_str(),
                format_duration(tp.queue_p95_s).c_str(),
                format_duration(tp.queue_p99_s).c_str());
}

void print_policy_table(const char* label, const LoadResult& r) {
    std::printf("%s (offered %zu in %.2fs)\n", label, r.offered, r.elapsed_s);
    std::printf("  %-16s %10s %10s %10s %10s %10s\n", "policy", "done QPS", "queue p95",
                "exec p95", "energy J", "coalesced");
    for (std::size_t lane = 0; lane < serve::kPolicyLanes; ++lane) {
        const auto policy = static_cast<sched::Policy>(lane);
        const auto& p = r.snapshot.of(policy);
        const auto& c = p.counters;
        const double mean_coalesced =
            c.batches_executed > 0
                ? static_cast<double>(c.coalesced_requests) /
                      static_cast<double>(c.batches_executed)
                : 0.0;
        std::printf("  %-16s %10.0f %10s %10s %10.2f %10.2f\n",
                    sched::policy_name(policy).c_str(),
                    static_cast<double>(c.completed) / r.elapsed_s,
                    format_duration(p.queue_p95_s).c_str(),
                    format_duration(p.execute_p95_s).c_str(), c.energy_j, mean_coalesced);
    }
    const auto t = r.snapshot.totals();
    std::printf("  total: sustained %.0f QPS, rejected %zu, shed %zu\n\n",
                static_cast<double>(t.completed) / r.elapsed_s,
                t.rejected_full + t.evicted, t.shed);
}

/// Part 5: closed-loop ticket clients on the sharded rings. Each client
/// keeps a bounded window of outstanding tickets (submit_ticket / try_result
/// / release), so steady state performs no heap allocation end to end and
/// the measured QPS is what the server sustains, not what a pacer offered.
LoadResult run_ticket_load(World& world, const serve::ServerConfig& config,
                           const TrafficSpec& traffic, double duration_s,
                           std::size_t clients) {
    constexpr std::size_t kWindow = 64;
    WallClock clock;
    serve::Server server(*world.scheduler, world.dispatcher, clock, config);
    const auto pool = make_payload_pool(traffic, 64);

    Atomic<std::size_t> offered{0};
    std::vector<std::thread> threads;
    threads.reserve(clients);
    const double start = clock.now();
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            std::vector<serve::Ticket> window;
            window.reserve(kWindow);
            serve::TicketResult result;
            std::size_t submitted = 0;
            std::size_t next = c;
            const auto reap = [&](std::size_t down_to) {
                while (window.size() > down_to) {
                    bool progressed = false;
                    for (std::size_t j = 0; j < window.size();) {
                        if (server.try_result(window[j], result)) {
                            server.release(window[j]);
                            window[j] = window.back();
                            window.pop_back();
                            progressed = true;
                        } else {
                            ++j;
                        }
                    }
                    if (!progressed) sleep_for_seconds(20e-6);
                }
            };
            while (clock.now() - start < duration_s) {
                while (window.size() < kWindow) {
                    const Tensor& payload = pool[next % pool.size()];
                    ++next;
                    const auto policy =
                        traffic.mixed_policies
                            ? static_cast<sched::Policy>(next % serve::kPolicyLanes)
                            : sched::Policy::kMaxThroughput;
                    const auto out = server.submit_ticket(
                        traffic.model, payload.span(),
                        traffic.samples_per_request, policy);
                    ++submitted;
                    if (!out.admitted) break;  // shed: reap and retry
                    window.push_back(out.ticket);
                }
                reap(kWindow / 2);
            }
            reap(0);
            offered.fetch_add(submitted, std::memory_order_relaxed);
        });
    }
    for (std::thread& t : threads) t.join();
    const double elapsed = clock.now() - start;
    server.stop();
    return {server.stats(), elapsed, offered.load(std::memory_order_relaxed)};
}

/// Part 4: one resilient server through a kill/revive cycle. Closed-loop
/// clients (bounded outstanding window) so each window's QPS reflects what
/// the fleet sustains, not what an open-loop pacer offered.
struct DegradedResult {
    double healthy_qps = 0.0;
    double killed_qps = 0.0;
    double recovered_qps = 0.0;
    std::string killed_device;
};

DegradedResult run_degraded(World& world, double window_s) {
    WallClock clock;
    fault::FaultInjector injector({.seed = 42}, clock);
    world.dispatcher.set_fault_injector(&injector);

    serve::ServerConfig config;
    config.workers = 3;
    config.queue_capacity = 128;
    config.batching.enabled = false;
    config.resilience.enabled = true;
    config.resilience.health.cooldown_s = 0.05;
    config.resilience.health.probe_interval_s = 0.01;
    serve::Server server(*world.scheduler, world.dispatcher, clock, config);

    const TrafficSpec tiny{"simple", 4, 8, false};
    const auto pool = make_payload_pool(tiny, 64);
    std::size_t next_payload = 0;

    const auto window = [&](double duration_s) {
        std::map<std::string, int> by_device;
        int completed = 0;
        std::deque<std::future<serve::Response>> inflight;
        const auto reap = [&](std::size_t down_to) {
            while (inflight.size() > down_to) {
                const serve::Response r = inflight.front().get();
                inflight.pop_front();
                if (r.ok()) {
                    ++completed;
                    by_device[r.device_name] += 1;
                }
            }
        };
        const double start = clock.now();
        while (clock.now() - start < duration_s) {
            reap(32);
            inflight.push_back(server.submit(serve::InferenceRequest{
                tiny.model, Tensor(pool[next_payload++ % pool.size()]),
                sched::Policy::kMaxThroughput}));
        }
        reap(0);
        const double elapsed = clock.now() - start;
        return std::pair<double, std::map<std::string, int>>{
            elapsed > 0.0 ? completed / elapsed : 0.0, by_device};
    };

    DegradedResult out;
    const auto [healthy_qps, healthy_by_device] = window(window_s);
    out.healthy_qps = healthy_qps;
    int busiest_count = 0;
    for (const auto& [device, count] : healthy_by_device) {
        if (count > busiest_count) {
            out.killed_device = device;
            busiest_count = count;
        }
    }

    injector.kill_device(out.killed_device);
    out.killed_qps = window(window_s).first;

    injector.revive_device(out.killed_device);
    sleep_for_seconds(2 * config.resilience.health.cooldown_s);
    // Drive traffic until the half-open probe closes the breaker (bounded).
    for (int round = 0; round < 100 &&
                        server.health()->state(out.killed_device) !=
                            fault::BreakerState::kClosed;
         ++round) {
        (void)window(window_s / 20.0);
    }
    out.recovered_qps = window(window_s).first;

    server.stop();
    world.dispatcher.set_fault_injector(nullptr);
    return out;
}

/// The headline numbers the CI regression gate compares. `sustained_qps` is
/// the ticket-path number of part 5.
struct BenchSummary {
    double sustained_qps = 0.0;
    double queue_wait_p95_s = 0.0;
    double queue_wait_p99_s = 0.0;
    double mean_batch = 0.0;
    double energy_per_request_j = 0.0;
    DegradedResult degraded;
};

/// Part 5's server: the tiny model, 32-request batches, stats shards
/// flushed every 32 batches to amortise them under contention.
serve::ServerConfig ticket_config(std::size_t workers) {
    serve::ServerConfig config;
    config.workers = workers;
    config.queue_capacity = 1024;
    config.admission.policy = serve::BackpressurePolicy::kRejectNewest;
    config.batching = {.enabled = true, .max_requests = 32, .max_samples = 4096,
                       .max_wait_s = 0.002};
    config.hot_path.stats_flush_batches = 32;
    return config;
}

void print_ticket_result(const LoadResult& r) {
    const auto t = r.snapshot.totals();
    const auto& lane = r.snapshot.of(sched::Policy::kMaxThroughput);
    std::printf("  sustained %9.0f QPS (%zu completed, %zu evicted, %zu rejected)\n",
                static_cast<double>(t.completed) / r.elapsed_s, t.completed, t.evicted,
                t.rejected_full);
    std::printf("  queue wait: p95 %s, p99 %s (bounded by the closed loop)\n",
                format_duration(lane.queue_p95_s).c_str(),
                format_duration(lane.queue_p99_s).c_str());
}

void write_json(const char* path, const BenchSummary& s) {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path);
        std::exit(1);
    }
    std::fprintf(f,
                 "{\n"
                 "  \"sustained_qps\": %.3f,\n"
                 "  \"queue_wait_p95_s\": %.9f,\n"
                 "  \"queue_wait_p99_s\": %.9f,\n"
                 "  \"mean_batch\": %.3f,\n"
                 "  \"energy_per_request_j\": %.9f,\n"
                 "  \"degraded\": {\n"
                 "    \"healthy_qps\": %.3f,\n"
                 "    \"killed_qps\": %.3f,\n"
                 "    \"recovered_qps\": %.3f,\n"
                 "    \"recovered_ratio\": %.4f\n"
                 "  }\n"
                 "}\n",
                 s.sustained_qps, s.queue_wait_p95_s, s.queue_wait_p99_s,
                 s.mean_batch, s.energy_per_request_j,
                 s.degraded.healthy_qps, s.degraded.killed_qps,
                 s.degraded.recovered_qps,
                 s.degraded.healthy_qps > 0.0
                     ? s.degraded.recovered_qps / s.degraded.healthy_qps
                     : 0.0);
    std::fclose(f);
    std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    bool contend = false;
    const char* json_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--contend") == 0) {
            contend = true;
        } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--quick] [--contend] [--json PATH]\n",
                         argv[0]);
            return 2;
        }
    }
    const double sweep_s = quick ? 0.4 : 1.2;
    const double maxrate_s = quick ? 0.5 : 1.5;
    const double degraded_window_s = quick ? 0.4 : 1.0;
    const std::vector<double> sweep_points =
        quick ? std::vector<double>{250.0, 4000.0}
              : std::vector<double>{50.0, 250.0, 1000.0, 4000.0};

    std::printf("building world (profiling + scheduler training)...\n");
    World world;

    const TrafficSpec tiny{"simple", 4, 8, true};

    // --- --contend: ticket load only, oversubscribed, evicting -----------
    // Workers beyond the hardware cores force preemption inside every ring
    // and steal window, and a small reject-oldest queue makes producers pop
    // lane heads that workers are popping and stealing at the same time; the
    // TSan CI leg runs exactly this configuration, so the schedules the
    // sanitizer sees are the most hostile ones.
    if (contend) {
        const std::size_t cores = std::thread::hardware_concurrency();
        const std::size_t workers = (cores > 0 ? cores : 4) + 2;
        serve::ServerConfig config = ticket_config(workers);
        config.queue_capacity = 16;
        config.admission.policy = serve::BackpressurePolicy::kRejectOldest;
        std::printf("\ncontention mode: %zu workers on %zu hardware cores, "
                    "reject-oldest queue of %zu\n",
                    workers, cores, config.queue_capacity);
        print_ticket_result(
            run_ticket_load(world, config, tiny, quick ? 0.5 : 1.5, workers));
        return 0;
    }

    // --- Part 1: offered-load sweep, batching off ----------------------
    // mnist-small is compute-heavy, so three workers saturate quickly and
    // the interesting behaviour is what the queue does past that point.
    const TrafficSpec heavy{"mnist-small", 784, 8, false};
    serve::ServerConfig sweep_config;
    sweep_config.workers = 3;
    sweep_config.queue_capacity = 128;
    sweep_config.admission.policy = serve::BackpressurePolicy::kRejectNewest;
    sweep_config.batching.enabled = false;

    std::printf("\nopen-loop sweep: %s, %zu samples/request, %zu workers, queue cap %zu\n",
                heavy.model, heavy.samples_per_request, sweep_config.workers,
                sweep_config.queue_capacity);
    std::printf("  %8s  %9s  %9s  %9s  %10s  %10s  %10s\n", "offered", "sustained",
                "completed", "refused", "queue p50", "queue p95", "queue p99");
    for (const double qps : sweep_points) {
        const auto result = run_load(world, sweep_config, heavy, qps, sweep_s);
        print_sweep_row(qps, result);
    }
    std::printf("  (refused grows past saturation while queue-wait percentiles stay"
                " bounded: the queue sheds, it does not build an unbounded backlog)\n");

    // --- Part 2: batching off vs on at max-rate arrivals ----------------
    // The tiny Iris model makes per-request serving overhead the bottleneck;
    // arrivals are submitted as fast as the client can push them.
    serve::ServerConfig unbatched = sweep_config;
    serve::ServerConfig batched = sweep_config;
    batched.batching = {.enabled = true, .max_requests = 32, .max_samples = 4096,
                        .max_wait_s = 0.002};

    std::printf("\ndynamic batching on %s at max-rate arrivals, mixed policies:\n\n",
                tiny.model);
    const auto off = run_load(world, unbatched, tiny, 1e9, maxrate_s);
    print_policy_table("batching OFF (batch=1)", off);
    const auto on = run_load(world, batched, tiny, 1e9, maxrate_s);
    print_policy_table("batching ON (<=32 req / 2 ms window)", on);

    const double off_qps =
        static_cast<double>(off.snapshot.totals().completed) / off.elapsed_s;
    const double on_qps =
        static_cast<double>(on.snapshot.totals().completed) / on.elapsed_s;
    std::printf("sustained QPS: %.0f -> %.0f (%.1fx) at equal workers\n", off_qps, on_qps,
                off_qps > 0.0 ? on_qps / off_qps : 0.0);

    // --- Part 5: ticket clients on the sharded rings ---------------------
    // Same tiny model and worker count as part 2, closed-loop ticket
    // clients. This is the CI gate's headline sustained_qps.
    std::printf("\nticket API on %s, 3 workers, 4 closed-loop clients:\n", tiny.model);
    const LoadResult tickets = run_ticket_load(world, ticket_config(3), tiny, maxrate_s, 4);
    print_ticket_result(tickets);

    // Headline numbers for the CI regression gate, from the ticket run.
    BenchSummary summary;
    {
        const auto totals = tickets.snapshot.totals();
        summary.sustained_qps =
            static_cast<double>(totals.completed) / tickets.elapsed_s;
        const auto& lane = tickets.snapshot.of(sched::Policy::kMaxThroughput);
        summary.queue_wait_p95_s = std::isnan(lane.queue_p95_s) ? 0.0 : lane.queue_p95_s;
        summary.queue_wait_p99_s = std::isnan(lane.queue_p99_s) ? 0.0 : lane.queue_p99_s;
        summary.mean_batch =
            totals.batches_executed > 0
                ? static_cast<double>(totals.coalesced_requests) /
                      static_cast<double>(totals.batches_executed)
                : 0.0;
        summary.energy_per_request_j =
            totals.completed > 0
                ? totals.energy_j / static_cast<double>(totals.completed)
                : 0.0;
    }

    // --- Part 3: request-path tracing overhead --------------------------
    // Same max-rate run twice: hooks with no recorder installed (one atomic
    // load per hook — the production "tracing off" cost) vs a recorder
    // capturing every span. Under -DMW_OBS=OFF this section is compiled out
    // along with the hooks themselves.
#if defined(MW_OBS_ENABLED)
    std::printf("\ntracing overhead on %s at max-rate arrivals (batching ON):\n",
                tiny.model);
    const auto plain = run_load(world, batched, tiny, 1e9, maxrate_s);
    const double plain_qps =
        static_cast<double>(plain.snapshot.totals().completed) / plain.elapsed_s;

    obs::TraceRecorder recorder({.ring_capacity = std::size_t{1} << 17});
    obs::TraceRecorder::install(&recorder);
    const auto traced = run_load(world, batched, tiny, 1e9, maxrate_s);
    obs::TraceRecorder::install(nullptr);
    const double traced_qps =
        static_cast<double>(traced.snapshot.totals().completed) / traced.elapsed_s;

    std::printf("  tracing OFF: %9.0f QPS\n", plain_qps);
    std::printf("  tracing ON:  %9.0f QPS  (%zu spans, %zu dropped, %zu threads)\n",
                traced_qps, recorder.snapshot().size(), recorder.dropped(),
                recorder.thread_count());
    const double overhead_pct =
        plain_qps > 0.0 ? (plain_qps - traced_qps) / plain_qps * 100.0 : 0.0;
    std::printf("  overhead: %.1f%% of sustained QPS (budget: < 5%%)\n", overhead_pct);
#else
    std::printf("\n(tracing hooks compiled out: MW_OBS=OFF)\n");
#endif

    // --- Part 4: degraded mode -------------------------------------------
    // Kill the busiest device mid-run; the breaker opens and excludes it, so
    // sustained QPS survives on the remaining devices, and after revival the
    // half-open re-probe re-admits it.
    std::printf("\ndegraded mode: hard device kill + breaker recovery (%s):\n",
                tiny.model);
    summary.degraded = run_degraded(world, degraded_window_s);
    const auto& deg = summary.degraded;
    std::printf("  healthy:   %9.0f QPS\n", deg.healthy_qps);
    std::printf("  killed:    %9.0f QPS  (%s down, breaker open)\n", deg.killed_qps,
                deg.killed_device.c_str());
    std::printf("  recovered: %9.0f QPS  (revived + re-admitted via half-open probe)\n",
                deg.recovered_qps);
    const double recovered_ratio =
        deg.healthy_qps > 0.0 ? deg.recovered_qps / deg.healthy_qps : 0.0;
    std::printf("  recovered/healthy: %.2f (advisory target: >= 0.70, not gated)%s\n",
                recovered_ratio, recovered_ratio >= 0.70 ? "" : "  (below advisory target)");

    if (json_path != nullptr) write_json(json_path, summary);
    return 0;
}
