#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <ctime>
#include <fstream>
#include <future>
#include <memory>
#include <thread>

#include "alloc_counter.hpp"
#include "common/mpmc_ring.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"
#include "fault/fault.hpp"
#include "graph/lowering.hpp"
#include "graph/planner.hpp"
#include "graph/synth.hpp"
#include "graph/verify.hpp"
#include "layers.hpp"
#include "nn/zoo.hpp"
#include "pacer.hpp"
#include "serve/server.hpp"
#include "stats.hpp"

namespace pb {

using namespace mw;

// Why each workload exists is part of the benchmark's definition; the
// `why` strings are printed with every run.
const std::vector<WorkloadDef>& workloads() {
    static const std::vector<WorkloadDef> defs = [] {
        std::vector<WorkloadDef> d;
        {
            WorkloadDef w;
            w.name = "tiny";
            w.why = "Iris MLP: the forward pass is ~1% of latency, so the serving spine, "
                    "scheduler and rings set the numbers";
            w.models = {"simple"};
            w.shape = {.min_samples = 1, .max_samples = 8, .pool_rows = 256};
            w.api = Api::kTicket;
            w.limit_s = 0.010;
            w.ladder_base = 200000.0;
            w.ref_rate = 40000.0;
            w.queue_capacity = 4096;
            d.push_back(w);
        }
        {
            WorkloadDef w;
            w.name = "cnn";
            w.why = "MNIST CNN and MLP at 1-8 samples: host kernels dominate and batch size "
                    "flips the device choice";
            w.models = {"mnist-cnn", "mnist-small"};
            w.shape = {.model_count = 2, .min_samples = 1, .max_samples = 8,
                       .log_uniform_samples = true, .pool_rows = 128};
            w.api = Api::kTicket;
            w.limit_s = 0.250;
            w.ladder_base = 200.0;
            w.ref_rate = 100.0;
            w.queue_capacity = 512;
            d.push_back(w);
        }
        {
            WorkloadDef w;
            w.name = "burst-slo";
            w.why = "on/off bursts at ~2x capacity with per-request SLOs through the legacy "
                    "queue, deadline shedding and the retry ladder under 2% faults";
            w.models = {"mnist-small"};
            w.shape = {.min_samples = 1, .max_samples = 4, .slo_min_s = 0.020,
                       .slo_max_s = 0.100, .pool_rows = 128};
            w.api = Api::kFuture;
            w.limit_s = 0.100;
            w.ladder_base = 400.0;
            w.ref_rate = 1500.0;
            w.burst_on_s = 0.25;
            w.burst_off_s = 0.25;
            w.queue_capacity = 256;
            w.admission = serve::BackpressurePolicy::kDeadlineShed;
            w.resilience = true;
            w.fault_p = 0.02;
            d.push_back(w);
        }
        {
            WorkloadDef w;
            w.name = "dag";
            w.why = "operator DAGs through run_graph: the planner, its cache (70% repeats) "
                    "and the verifier do the work";
            w.models = {"mnist-small", "mnist-cnn"};
            w.shape = {.model_count = 2, .hot_graphs = 0, .repeat_share = 0.7};
            w.api = Api::kGraph;
            w.limit_s = 0.020;
            w.ladder_base = 3000.0;
            // Low enough that the devices' model-time backlog, and with it
            // the energy read from this phase, does not grow.
            w.ref_rate = 100.0;
            d.push_back(w);
        }
        return d;
    }();
    return defs;
}

const WorkloadDef* find_workload(std::string_view name) {
    for (const WorkloadDef& w : workloads()) {
        if (w.name == name) return &w;
    }
    return nullptr;
}

namespace {

/// Share of an untraced run's seconds spent in the reference phase; the
/// rest goes to the goodput ladder.
constexpr double kRefShare = 0.6;

/// Latency percentiles are the median over up to this many windows of the
/// reference phase (see windowed_percentile).
constexpr std::size_t kLatencyWindows = 5;

/// The goodput ladder: kLadderRungs rungs from the workload's base rate,
/// each kLadderRatio above the last (4% steps, finer than any bound; 32
/// rungs span 3.4x).
constexpr double kLadderRatio = 1.04;
constexpr std::size_t kLadderRungs = 32;

/// Probes of a failing ladder rung before it counts as failed.
constexpr std::size_t kLadderTries = 3;

/// setup_s is the median of warm world builds (after the process's first,
/// cold one), taken at the start of the run, after the reference phase and
/// at the end, so that a slow spell of the host does not set it. Each time,
/// at least kSetupMinRuns builds, repeated until kSetupMinS has passed (at
/// most kSetupMaxRuns).
constexpr std::size_t kSetupMinRuns = 5;
constexpr std::size_t kSetupMaxRuns = 50;
constexpr double kSetupMinS = 1.0;

/// Per-request latency limit: its own SLO, else the workload's limit.
double limit_of(const WorkloadDef& def, const RequestSpec& r) {
    return r.slo_s > 0.0 ? r.slo_s : def.limit_s;
}

double longest_limit(const WorkloadDef& def) {
    return std::max(def.limit_s, def.shape.slo_max_s);
}

bool on_time(const WorkloadDef& def, const RequestSpec& r, const Outcome& o) {
    return o.status == serve::RequestStatus::kCompleted && o.correct && o.done_s >= 0.0 &&
           o.done_s - r.at_s <= limit_of(def, r);
}

int device_index(const World& world, std::string_view name) {
    const auto devices = world.registry.devices();
    for (std::size_t i = 0; i < devices.size(); ++i) {
        if (devices[i]->name() == name) return static_cast<int>(i);
    }
    return -1;
}

double cpu_clock_s(clockid_t clock) {
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// The serving stack's CPU time in a phase: what the process spent, less the
// benchmark's own threads, plus those threads' time inside the stack's calls
// (submit, a successful try_result, release; run_graph). The client and the
// dag executors spin while idle, so their own CPU time measures the schedule,
// not the stack; the server's workers sleep when idle.
double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

template <typename... Vectors>
std::size_t bytes_of(const Vectors&... vectors) {
    return (0 + ... + (vectors.size() * sizeof(typename Vectors::value_type)));
}

std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
}

/// Queue-depth samples taken by the generator, for backlog_max and the
/// no-growing-backlog condition of goodput.
class BacklogProbe {
public:
    explicit BacklogProbe(double duration_s) : duration_s_(duration_s) {}

    void sample(double at_s, std::size_t depth) {
        max_ = std::max(max_, depth);
        if (at_s < duration_s_ / 2) {
            first_half_max_ = std::max(first_half_max_, depth);
        } else if (at_s >= duration_s_ * 3 / 4) {
            last_quarter_max_ = std::max(last_quarter_max_, depth);
        }
    }
    [[nodiscard]] std::size_t max() const { return max_; }
    /// The backlog grew when the last quarter's peak clearly exceeds the
    /// first half's.
    [[nodiscard]] bool grew() const { return last_quarter_max_ > 2 * first_half_max_ + 16; }

private:
    double duration_s_;
    std::size_t max_ = 0;
    std::size_t first_half_max_ = 0;
    std::size_t last_quarter_max_ = 0;
};

/// Reads the allocation counter when the generator enters and leaves the
/// middle half of a phase (the steady state).
class AllocWindow {
public:
    explicit AllocWindow(double duration_s) : lo_(duration_s / 4), hi_(duration_s * 3 / 4) {}

    void on_send(double at_s) {
        if (at_s >= lo_ && !opened_) {
            opened_ = true;
            start_ = allocations();
        }
        if (opened_ && !closed_) {
            if (at_s >= hi_) {
                closed_ = true;
                allocs_ = allocations() - start_;
            } else {
                ++requests_;
            }
        }
    }
    void finish(Phase& p) const {
        p.steady_allocs = closed_ ? allocs_ : 0;
        p.steady_requests = closed_ ? requests_ : 0;
    }

private:
    double lo_, hi_;
    bool opened_ = false, closed_ = false;
    std::uint64_t start_ = 0, allocs_ = 0;
    std::size_t requests_ = 0;
};

/// Ticket and futures workloads, driven from this thread.
Phase run_serving_phase(Ctx& ctx, std::vector<RequestSpec> stream, double duration_s,
                        std::uint64_t seed, bool traced, SpanLog* spans) {
    const WorkloadDef& def = ctx.def;
    World& world = ctx.world;
    Phase p;
    p.stream = std::move(stream);
    const std::size_t n = p.stream.size();
    p.out.assign(n, {});
    p.lags_s.assign(n, 0.0);

    world.reset();
    WallClock clock;
    std::unique_ptr<fault::FaultInjector> injector;
    if (def.fault_p > 0.0) {
        injector = std::make_unique<fault::FaultInjector>(
            fault::FaultConfig{.transient_failure_p = def.fault_p, .seed = seed}, clock);
        world.dispatcher.set_fault_injector(injector.get());
    }
    serve::ServerConfig config;
    config.workers = ctx.options.workers;
    config.queue_capacity = def.queue_capacity;
    config.admission.policy = def.admission;
    config.drain_on_stop = false;
    config.resilience.enabled = def.resilience;
    // Four tries keep retry exhaustion under 2% faults (0.02^4 per batch)
    // out of a run's failures.
    config.resilience.retry.max_attempts = 4;
    serve::Server server(*world.scheduler, world.dispatcher, clock, config);
    const bool tickets_api = def.api == Api::kTicket;
    MW_CHECK(!tickets_api || server.hot_path_active(), "ticket workloads need the hot path");

    std::vector<serve::Ticket> tickets(tickets_api ? n : 0);
    std::vector<std::future<serve::Response>> futures(tickets_api ? 0 : n);
    p.record_bytes = bytes_of(p.stream, p.out, p.lags_s, tickets, futures);
    std::vector<std::uint32_t> outstanding;
    outstanding.reserve(n);
    serve::TicketResult result;

    const Pacer pacer;
    double api_s = 0.0;  // client time inside the server's calls
    const auto record_ok = [&](std::uint32_t idx, std::span<const float> outputs,
                               const std::string& device, const device::Measurement* m,
                               double queue_s, std::size_t attempts, bool hedged) {
        Outcome& o = p.out[idx];
        const RequestSpec& r = p.stream[idx];
        o.correct = ctx.pools[r.model].matches(r.offset, r.samples, outputs);
        o.queue_s = queue_s;
        o.attempts = static_cast<std::uint32_t>(attempts);
        o.hedged = hedged;
        o.device = device_index(world, device);
        if (m != nullptr) {
            o.busy_s = m->end_time - m->start_time;
            o.batch = static_cast<std::uint32_t>(m->batch);
            o.start_sim_s = m->start_time;
        }
    };
    // One pass over the outstanding requests; true when any completed.
    const auto poll = [&] {
        bool progressed = false;
        for (std::size_t j = 0; j < outstanding.size();) {
            const std::uint32_t idx = outstanding[j];
            Outcome& o = p.out[idx];
            bool ready = false;
            if (tickets_api) {
                const double polled_s = pacer.now();
                if (server.try_result(tickets[idx], result)) {
                    o.done_s = pacer.now();
                    api_s += o.done_s - polled_s;
                    o.status = result.status;
                    if (result.ok()) {
                        record_ok(idx, result.outputs, *result.device_name, result.measurement,
                                  result.queue_s, result.attempts, result.hedged);
                    }
                    const double release_s = pacer.now();
                    server.release(tickets[idx]);
                    api_s += pacer.now() - release_s;
                    ready = true;
                }
            } else if (futures[idx].wait_for(std::chrono::seconds(0)) ==
                       std::future_status::ready) {
                o.done_s = pacer.now();
                const serve::Response response = futures[idx].get();
                api_s += pacer.now() - o.done_s;
                o.status = response.status;
                if (response.ok()) {
                    record_ok(idx, response.outputs.span(), response.device_name,
                              &response.measurement, response.queue_s, response.attempts,
                              response.hedged);
                }
                ready = true;
            }
            if (ready) {
                if (traced) spans->add(SpanName::kRequest, idx, p.stream[idx].at_s, o.done_s);
                outstanding[j] = outstanding.back();
                outstanding.pop_back();
                progressed = true;
            } else {
                ++j;
            }
        }
        return progressed;
    };
    const auto build_request = [&](const RequestSpec& r) {
        const PayloadPool& pool = ctx.pools[r.model];
        Tensor payload(Shape{r.samples, pool.elems});
        const auto src = pool.payload(r.offset, r.samples);
        std::copy(src.begin(), src.end(), payload.data());
        return serve::InferenceRequest{pool.model, std::move(payload), r.policy, r.slo_s};
    };

    BacklogProbe backlog(duration_s);
    AllocWindow alloc_window(duration_s);
    serve::InferenceRequest next_request;
    if (!tickets_api && n > 0) next_request = build_request(p.stream[0]);
    // Whatever is still outstanding once the last request's limit has passed
    // has missed; the server is stopped rather than left to drain an
    // overload.
    const double give_up = (n > 0 ? p.stream.back().at_s : 0.0) + longest_limit(def) + 0.05;
    const double process_cpu_start = process_cpu_s();
    const double client_cpu_start = thread_cpu_s();
    // The client thread sends on schedule and, between sends, observes
    // completions; a send that falls due always goes first.
    std::size_t next = 0;
    while (next < n || !outstanding.empty()) {
        if (next < n && pacer.now() >= p.stream[next].at_s) {
            const RequestSpec& r = p.stream[next];
            const auto idx = static_cast<std::uint32_t>(next);
            Outcome& o = p.out[next];
            o.sent_s = pacer.now();
            p.lags_s[next] = o.sent_s - r.at_s;
            alloc_window.on_send(r.at_s);
            bool admitted = true;
            if (tickets_api) {
                const PayloadPool& pool = ctx.pools[r.model];
                const auto outcome = server.submit_ticket(
                    pool.model, pool.payload(r.offset, r.samples), r.samples, r.policy, r.slo_s);
                if (outcome.admitted) {
                    tickets[next] = outcome.ticket;
                } else {
                    o.status = outcome.status;
                    admitted = false;
                }
            } else {
                futures[next] = server.submit(std::move(next_request));
            }
            o.submit_s = pacer.now() - o.sent_s;
            api_s += o.submit_s;
            if (traced) spans->add(SpanName::kSubmit, idx, o.sent_s, o.sent_s + o.submit_s);
            if (admitted) outstanding.push_back(idx);
            if ((next & 31U) == 0) backlog.sample(r.at_s, server.queue_depth());
            ++next;
            if (!tickets_api && next < n) next_request = build_request(p.stream[next]);
            continue;
        }
        if (next == n && pacer.now() > give_up) break;
        if (!poll()) {
            if (outstanding.empty() && next < n) {
                (void)pacer.wait_until(p.stream[next].at_s);
            } else {
                std::this_thread::yield();
            }
        }
    }
    p.stack_cpu_s = process_cpu_s() - process_cpu_start - (thread_cpu_s() - client_cpu_start) +
                    api_s;
    server.stop();
    const double stop_deadline = pacer.now() + 2.0;
    while (!outstanding.empty() && pacer.now() < stop_deadline) {
        if (!poll()) std::this_thread::yield();
    }
    p.snapshot = server.stats();
    p.device_backlog_s = world.backlog_s(clock.now());
    p.backlog_max = backlog.max();
    p.backlog_grew = backlog.grew();
    alloc_window.finish(p);
    world.dispatcher.set_fault_injector(nullptr);
    return p;
}

/// Graph workload: the generator paces graphs into a ring that executor
/// threads drain through Server::run_graph.
Phase run_graph_phase(Ctx& ctx, std::vector<RequestSpec> stream, double duration_s,
                      const std::vector<graph::Graph>& graphs, bool traced, SpanLog* spans) {
    const WorkloadDef& def = ctx.def;
    World& world = ctx.world;
    Phase p;
    p.stream = std::move(stream);
    const std::size_t n = p.stream.size();
    p.out.assign(n, {});
    p.lags_s.assign(n, 0.0);
    p.executed.resize(n);
    p.record_bytes = bytes_of(p.stream, p.out, p.lags_s, p.executed);

    world.reset();
    WallClock clock;
    serve::ServerConfig config;
    config.workers = 1;  // idle: graphs run on the executors below
    serve::Server server(*world.scheduler, world.dispatcher, clock, config);

    const std::size_t hits_before = world.scheduler->graph_planner().cache_hits();
    MpmcRing<std::uint32_t> ring(round_up_pow2(std::max<std::size_t>(n, 1024)));
    std::atomic<bool> sending_done{false};
    std::atomic<std::size_t> taken{0};
    const Pacer pacer;
    std::vector<SpanLog> executor_spans(ctx.options.workers);
    std::vector<double> executor_cpu_s(ctx.options.workers, 0.0);
    std::vector<std::thread> executors;
    for (std::size_t e = 0; e < ctx.options.workers; ++e) {
        executors.emplace_back([&, e] {
            std::uint32_t idx = 0;
            for (;;) {
                const bool done_sending = sending_done.load(std::memory_order_acquire);
                if (!ring.try_pop(idx)) {
                    if (done_sending) break;
                    std::this_thread::yield();
                    continue;
                }
                taken.fetch_add(1, std::memory_order_relaxed);
                const RequestSpec& r = p.stream[idx];
                Outcome& o = p.out[idx];
                o.start_s = pacer.now();
                // A graph already past its limit has missed: drop it instead
                // of running an overload's backlog.
                if (o.start_s - r.at_s > limit_of(def, r)) continue;
                const double cpu_start = thread_cpu_s();
                try {
                    auto result = server.run_graph(graphs[r.graph], r.policy);
                    executor_cpu_s[e] += thread_cpu_s() - cpu_start;
                    o.done_s = pacer.now();
                    o.status = serve::RequestStatus::kCompleted;
                    o.correct = result.verified;
                    p.executed[idx] = std::move(result.executed);
                } catch (const std::exception&) {
                    executor_cpu_s[e] += thread_cpu_s() - cpu_start;
                    o.done_s = pacer.now();
                    o.status = serve::RequestStatus::kFailed;
                }
                if (traced) {
                    executor_spans[e].add(SpanName::kRunGraph, idx, o.start_s, o.done_s);
                    executor_spans[e].add(SpanName::kRequest, idx, r.at_s, o.done_s);
                }
            }
        });
    }

    BacklogProbe backlog(duration_s);
    AllocWindow alloc_window(duration_s);
    for (std::size_t i = 0; i < n; ++i) {
        const RequestSpec& r = p.stream[i];
        p.lags_s[i] = pacer.wait_until(r.at_s);
        p.out[i].sent_s = r.at_s + p.lags_s[i];
        alloc_window.on_send(r.at_s);
        while (!ring.try_push(static_cast<std::uint32_t>(i))) std::this_thread::yield();
        if ((i & 7U) == 0) {
            backlog.sample(r.at_s, i + 1 - taken.load(std::memory_order_relaxed));
        }
    }
    sending_done.store(true, std::memory_order_release);
    for (std::thread& t : executors) t.join();
    // The server's own worker sleeps throughout: graphs run on the executors.
    for (const double cpu_s : executor_cpu_s) p.stack_cpu_s += cpu_s;
    if (traced) {
        for (const SpanLog& log : executor_spans) spans->append(log);
    }

    // Re-verify every executed schedule from outside the server.
    for (std::size_t i = 0; i < n; ++i) {
        Outcome& o = p.out[i];
        if (o.status != serve::RequestStatus::kCompleted) continue;
        if (!graph::verify_schedule(graphs[p.stream[i].graph], p.executed[i]).empty()) {
            o.correct = false;
            ++p.verify_failures;
        }
    }
    server.stop();
    p.plan_cache_hits = world.scheduler->graph_planner().cache_hits() - hits_before;
    p.snapshot = server.stats();
    p.device_backlog_s = world.backlog_s(clock.now());
    p.backlog_max = backlog.max();
    p.backlog_grew = backlog.grew();
    alloc_window.finish(p);
    return p;
}

/// The graphs a dag phase's stream refers to: the hot set, then one fresh
/// graph per non-repeating request. Fresh graphs are drawn from the phase's
/// own seed, so no phase of a run repeats another's.
std::vector<graph::Graph> phase_graphs(const Ctx& ctx, const std::vector<RequestSpec>& stream,
                                       std::uint64_t seed) {
    std::vector<graph::Graph> graphs = ctx.hot_graphs;
    std::uint32_t max_index = 0;
    for (const RequestSpec& r : stream) max_index = std::max(max_index, r.graph);
    for (auto i = static_cast<std::uint32_t>(graphs.size()); i <= max_index; ++i) {
        graphs.push_back(fresh_graph(seed, i));
    }
    return graphs;
}

struct PhaseRun {
    Phase phase;
    std::vector<graph::Graph> graphs;
};

PhaseRun run_phase(Ctx& ctx, std::vector<RequestSpec> stream, double duration_s,
                   std::uint64_t seed, bool traced, SpanLog* spans) {
    PhaseRun run;
    if (ctx.def.api == Api::kGraph) {
        run.graphs = phase_graphs(ctx, stream, seed);
        run.phase = run_graph_phase(ctx, std::move(stream), duration_s, run.graphs, traced, spans);
    } else {
        run.phase = run_serving_phase(ctx, std::move(stream), duration_s, seed, traced, spans);
    }
    return run;
}

RequestShape shape_for(const Ctx& ctx) {
    RequestShape shape = ctx.def.shape;
    shape.hot_graphs = static_cast<std::uint32_t>(ctx.hot_graphs.size());
    return shape;
}

LadderStep to_step(const Ctx& ctx, double rate, const Phase& p) {
    LadderStep step;
    step.rate = rate;
    step.sent = p.stream.size();
    for (std::size_t i = 0; i < p.stream.size(); ++i) {
        if (!on_time(ctx.def, p.stream[i], p.out[i])) ++step.missed;
    }
    step.backlog_grew = p.backlog_grew;
    return step;
}

/// Goodput by bisection over the workload's ladder, each rung probed for
/// `step_s` with its own seeded stream.
double measure_goodput(Ctx& ctx, double ladder_s, std::uint64_t seed, bool traced,
                       SpanLog* spans, std::size_t* sent_total) {
    const WorkloadDef& def = ctx.def;
    // Bisection probes ceil(log2(rungs + 1)) rungs; the ones that fail are
    // probed up to kLadderTries times, about twice the probes in all.
    const auto rungs_probed = static_cast<std::size_t>(
        std::ceil(std::log2(static_cast<double>(kLadderRungs) + 1.0)));
    const double step_s = ladder_s / static_cast<double>(2 * rungs_probed);
    std::size_t probe_no = 0;
    std::size_t sent = 0;
    const auto steps = bisect_ladder(
        def.ladder_base, kLadderRatio, kLadderRungs, kLadderTries, [&](double rate) {
            const std::uint64_t s = phase_seed(seed, 100 + probe_no++);
            PhaseRun run = run_phase(ctx, poisson_stream(shape_for(ctx), rate, step_s, s),
                                     step_s, s, traced, spans);
            sent += run.phase.stream.size();
            return to_step(ctx, rate, run.phase);
        });
    if (sent_total != nullptr) *sent_total = sent;
    return goodput(steps);
}

std::vector<RequestSpec> reference_stream(const Ctx& ctx, double ref_s, std::uint64_t seed) {
    const WorkloadDef& def = ctx.def;
    const std::uint64_t s = phase_seed(seed, 1);
    return def.burst_on_s > 0.0
               ? burst_stream(shape_for(ctx), def.ref_rate, def.burst_on_s, def.burst_off_s,
                              ref_s, s)
               : poisson_stream(shape_for(ctx), def.ref_rate, ref_s, s);
}

/// Geometric mean of monolithic over DAG-aware makespan on idle devices.
double plan_speedup(const std::vector<graph::Graph>& graphs, std::size_t* count) {
    std::vector<graph::PlannerDevice> devices(3);
    devices[0].params = device::i7_8700_params();
    devices[1].params = device::uhd630_params();
    devices[2].params = device::gtx1080ti_params();
    const graph::GraphPlanner planner;
    std::vector<double> speedups;
    for (const graph::Graph& g : graphs) {
        const double dag = planner.plan(g, devices, graph::Objective::kMakespan).makespan_s();
        const double mono =
            planner.plan_monolithic(g, devices, graph::Objective::kMakespan).makespan_s();
        speedups.push_back(mono / dag);
    }
    *count = graphs.size();
    return graphs.empty() ? 1.0 : mw::geomean(speedups);
}

/// The graph set plan_speedup is taken over: the dag workload's hot set and
/// fresh graphs; elsewhere the workload's models lowered at the batch sizes
/// its requests coalesce to.
std::vector<graph::Graph> speedup_graphs(const Ctx& ctx) {
    if (ctx.def.api == Api::kGraph) {
        std::vector<graph::Graph> graphs = ctx.hot_graphs;
        for (std::uint32_t i = 0; i < 200; ++i) {
            graphs.push_back(fresh_graph(ctx.speedup_seed, i));
        }
        return graphs;
    }
    std::vector<graph::Graph> graphs;
    for (const std::string& name : ctx.world.models) {
        for (const std::size_t batch : {1, 16, 256}) {
            graphs.push_back(graph::lower(ctx.world.dispatcher.model(name), batch).graph);
        }
    }
    return graphs;
}

std::vector<graph::Graph> make_hot_graphs(const World& world, std::uint64_t seed) {
    std::vector<graph::Graph> graphs;
    for (const std::string& name : world.models) {
        for (const std::size_t batch : {1, 8, 64}) {
            graphs.push_back(graph::lower(world.dispatcher.model(name), batch).graph);
        }
    }
    graphs.push_back(graph::make_memory_bound());
    graphs.push_back(graph::make_compute_bound());
    // Enough seeded random graphs that the set's mean cost hardly moves
    // from seed to seed.
    Rng rng(phase_seed(seed, 7));
    for (int i = 0; i < 56; ++i) graphs.push_back(graph::random_dag(rng, kDagShape));
    return graphs;
}

double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            double kb = 0.0;
            status >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

std::vector<nn::ModelSpec> specs_of(const WorkloadDef& def) {
    std::vector<nn::ModelSpec> specs;
    for (const std::string& name : def.models) specs.push_back(nn::zoo::by_name(name));
    return specs;
}

/// Build a world and serve one request: process set-up up to the first
/// admitted request, as a user of the stack pays it.
double time_setup(const WorkloadDef& def, std::unique_ptr<World>& world) {
    world.reset();
    const Pacer pacer;
    world = std::make_unique<World>(specs_of(def));
    WallClock clock;
    serve::ServerConfig config;
    config.workers = 1;
    config.admission.policy = def.admission;
    serve::Server server(*world->scheduler, world->dispatcher, clock, config);
    const nn::Model& model = world->dispatcher.model(world->models.front());
    double admitted_s = 0.0;
    if (def.api == Api::kGraph) {
        (void)server.run_graph(graph::lower(model, 1).graph, sched::Policy::kMaxThroughput);
        admitted_s = pacer.now();
    } else {
        auto future = server.submit({world->models.front(),
                                     Tensor(Shape{1, model.input_shape(1).numel()}),
                                     sched::Policy::kMaxThroughput, 0.0});
        admitted_s = pacer.now();
        (void)future.get();
    }
    server.stop();
    world->reset();
    return admitted_s;
}

/// Warm builds into `world` for one sampling of setup_s (see kSetupMinS).
void sample_setups(const WorkloadDef& def, std::unique_ptr<World>& world,
                   std::vector<double>& setups) {
    const Pacer clock;
    for (std::size_t builds = 0;
         builds < kSetupMinRuns || (clock.now() < kSetupMinS && builds < kSetupMaxRuns);
         ++builds) {
        setups.push_back(time_setup(def, world));
    }
}

/// The reference phase as the client saw it.
struct Latencies {
    std::vector<double> values_s;  ///< correct completions, in send order
    std::size_t ontime = 0;
    std::size_t completed_ok = 0;
    std::size_t errors = 0;  ///< wrong outputs and execution failures
};

Latencies latencies_of(const WorkloadDef& def, const Phase& p) {
    Latencies l;
    l.values_s.reserve(p.stream.size());
    for (std::size_t i = 0; i < p.stream.size(); ++i) {
        const Outcome& o = p.out[i];
        const RequestSpec& r = p.stream[i];
        if (o.status == serve::RequestStatus::kCompleted) {
            if (o.correct) {
                ++l.completed_ok;
                l.values_s.push_back(o.done_s - r.at_s);
            } else {
                ++l.errors;
            }
        } else if (o.status == serve::RequestStatus::kFailed && o.done_s >= 0.0) {
            ++l.errors;  // a graph dropped past its limit never ran: a miss, not an error
        }
        if (on_time(def, r, o)) ++l.ontime;
    }
    return l;
}

double energy_mj_per_req(const Phase& p, std::size_t completed) {
    if (completed == 0) return 0.0;
    double joules = 0.0;
    if (!p.executed.empty()) {
        for (std::size_t i = 0; i < p.executed.size(); ++i) {
            if (p.out[i].status == serve::RequestStatus::kCompleted) {
                joules += p.executed[i].total_energy_j();
            }
        }
    } else {
        joules = p.snapshot.totals().energy_j;
    }
    return joules * 1e3 / static_cast<double>(completed);
}

}  // namespace

Report run_workload(const WorkloadDef& def, const RunOptions& options) {
    Report report;

    // Set-up: the process's first, cold world build, then repeated warm
    // builds, each up to its first admitted request; the last world serves
    // the run.
    std::unique_ptr<World> world;
    const double cold_setup_s = time_setup(def, world);
    std::vector<double> setups;
    sample_setups(def, world, setups);
    const std::vector<PayloadPool> pools =
        make_pools(*world, def.shape.pool_rows, phase_seed(options.seed, 2));

    Ctx ctx{def, options, *world, pools, {}, 0};
    ctx.speedup_seed = phase_seed(options.seed, 3);
    if (def.api == Api::kGraph) ctx.hot_graphs = make_hot_graphs(*world, options.seed);

    const double s = options.seconds;
    SpanLog spans;
    if (!options.trace) {
        const double ref_s = kRefShare * s;
        const Phase ref =
            run_phase(ctx, reference_stream(ctx, ref_s, options.seed), ref_s,
                      phase_seed(options.seed, 4), false, nullptr)
                .phase;
        // Peak memory of the run so far, less the benchmark's own
        // per-request arrays of this phase (most of it on tiny): the
        // libraries, the world and the server at its run configuration and
        // load. Read before the ladder, whose records scale with the rates
        // it happens to probe.
        const double run_rss_mb =
            peak_rss_mb() - static_cast<double>(ref.record_bytes) / (1024.0 * 1024.0);
        std::unique_ptr<World> spare;
        sample_setups(def, spare, setups);
        std::size_t ladder_sent = 0;
        const double goodput_rps =
            measure_goodput(ctx, (1.0 - kRefShare) * s, options.seed, false, nullptr, &ladder_sent);
        sample_setups(def, spare, setups);
        report.add("setup_s", mw::median(setups), "s", "wall", setups.size());
        report.add("setup_cold_s", cold_setup_s, "s", "wall", 1);

        const Latencies lat = latencies_of(def, ref);
        const std::size_t sent = ref.stream.size();
        report.attempted = sent;
        report.failed = lat.errors;
        if (lat.errors > 0 || ref.verify_failures > 0) report.correct = false;

        const bool p99_ok = supports_percentile(lat.values_s.size(), 0.99);
        if (!p99_ok) {
            report.notes.push_back("latency_p99_ms rests on fewer than 1000 completions");
        }
        report.add("peak_rss_mb", run_rss_mb, "MiB", "-", 1);
        report.add("latency_p50_ms",
                   windowed_percentile(lat.values_s, 0.5, kLatencyWindows) * 1e3, "ms", "wall",
                   lat.values_s.size());
        report.add("latency_p99_ms",
                   windowed_percentile(lat.values_s, 0.99, kLatencyWindows) * 1e3, "ms", "wall",
                   lat.values_s.size());
        report.add("goodput_rps", goodput_rps, "req/s", "wall", ladder_sent);
        report.add("ontime_rps", static_cast<double>(lat.ontime) / ref_s, "req/s",
                   "wall", sent);
        report.add("cpu_us_per_req",
                   lat.completed_ok > 0
                       ? ref.stack_cpu_s * 1e6 / static_cast<double>(lat.completed_ok)
                       : 0.0,
                   "us", "cpu", lat.completed_ok);
        const double sent_d = static_cast<double>(std::max<std::size_t>(sent, 1));
        report.add("energy_mj_per_req", energy_mj_per_req(ref, lat.completed_ok), "mJ", "model",
                   lat.completed_ok);
        std::size_t graph_count = 0;
        const double speedup = plan_speedup(speedup_graphs(ctx), &graph_count);
        report.add("plan_speedup", speedup, "ratio", "model", graph_count);
        // Zero in a healthy run, so printed but not gated.
        report.add("miss_share", 1.0 - static_cast<double>(lat.ontime) / sent_d, "ratio", "wall",
                   sent);
        report.add("fail_share",
                   static_cast<double>(sent - lat.completed_ok) / sent_d, "ratio", "-", sent);
        report.add("device.backlog_s", ref.device_backlog_s, "s", "model", 1);
        const LagReport lag = check_lag(ref.lags_s, def.limit_s / 4);
        report.add("bench.gen_lag_ms.p99", lag.p99_s * 1e3, "ms", "wall", ref.lags_s.size());
        if (!lag.ok) {
            report.notes.push_back("generator lag p99 exceeds a quarter of the latency limit; "
                                   "latencies include generator stalls");
        }
        return report;
    }

    // Traced run: tracing overhead on goodput, then a traced reference
    // phase replayed through each layer.
    const double untraced_goodput =
        measure_goodput(ctx, 0.3 * s, options.seed, false, nullptr, nullptr);
    SpanLog ladder_spans;  // recorded so the traced ladder pays for tracing; not reported
    const double traced_goodput =
        measure_goodput(ctx, 0.3 * s, options.seed, true, &ladder_spans, nullptr);
    const double ref_s = 0.4 * s;
    PhaseRun run = run_phase(ctx, reference_stream(ctx, ref_s, options.seed), ref_s,
                             phase_seed(options.seed, 4), true, &spans);
    const Phase& ref = run.phase;
    const Latencies lat = latencies_of(def, ref);
    report.attempted = ref.stream.size();
    report.failed = lat.errors;
    if (lat.errors > 0 || ref.verify_failures > 0) report.correct = false;
    report.add("obs.trace_overhead_share",
               untraced_goodput > 0.0 ? (untraced_goodput - traced_goodput) / untraced_goodput
                                      : 0.0,
               "ratio", "wall", 2);
    add_layer_metrics(ctx, ref, run.graphs, percentile(lat.values_s, 0.5), report, spans);
    const LagReport lag = check_lag(ref.lags_s, def.limit_s / 4);
    report.add("bench.gen_lag_ms.p99", lag.p99_s * 1e3, "ms", "wall", ref.lags_s.size());
    if (!options.trace_out.empty()) spans.write_csv(options.trace_out);
    return report;
}

}  // namespace pb
