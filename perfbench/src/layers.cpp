#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <thread>
#include <tuple>

#include "alloc_counter.hpp"
#include "common/mpmc_ring.hpp"
#include "graph/planner.hpp"
#include "graph/synth.hpp"
#include "graph/verify.hpp"
#include "nn/zoo.hpp"
#include "pacer.hpp"
#include "sched/oracle.hpp"
#include "stats.hpp"

namespace pb {

using namespace mw;

namespace {

const char* span_name(SpanName name) {
    switch (name) {
        case SpanName::kRequest: return "request";
        case SpanName::kSubmit: return "serve.submit";
        case SpanName::kRunGraph: return "serve.run_graph";
        case SpanName::kForward: return "nn.forward";
        case SpanName::kPlanCold: return "graph.plan_cold";
        case SpanName::kPlanHit: return "graph.plan_hit";
        case SpanName::kVerify: return "graph.verify";
        case SpanName::kRunSchedule: return "graph.run_schedule";
    }
    return "unknown";
}

}  // namespace

std::vector<double> SpanLog::durations(SpanName name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
        if (s.name == name) out.push_back(s.t1 - s.t0);
    }
    return out;
}

void SpanLog::write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::fprintf(f, "name,request,parent,t0_s,t1_s\n");
    for (const Span& s : spans_) {
        std::fprintf(f, "%s,%u,%s,%.9f,%.9f\n", span_name(s.name), s.request,
                     s.name == SpanName::kRequest ? "-" : "request", s.t0, s.t1);
    }
    std::fclose(f);
}

namespace {

/// The models whose nn.* metrics every workload reports (0 where unused).
const std::vector<std::string>& nn_models() {
    static const std::vector<std::string> names{"simple", "mnist-small", "mnist-cnn"};
    return names;
}

/// One executed batch as the server ran it.
struct BatchKey {
    int device = -1;
    double start_sim_s = 0.0;
    friend bool operator<(const BatchKey& a, const BatchKey& b) {
        return std::tie(a.device, a.start_sim_s) < std::tie(b.device, b.start_sim_s);
    }
};

struct BatchInfo {
    std::uint32_t model = 0;
    sched::Policy policy = sched::Policy::kMaxThroughput;
    std::size_t samples = 0;
    int device = -1;
};

/// Times `fn` over `count` calls repeated until at least `min_s` elapsed;
/// returns seconds per call.
template <typename Fn>
double time_per_call(std::size_t count, double min_s, Fn&& fn) {
    if (count == 0) return 0.0;
    const Pacer clock;
    std::size_t calls = 0;
    do {
        for (std::size_t i = 0; i < count; ++i) fn(i);
        calls += count;
    } while (clock.now() < min_s);
    return clock.now() / static_cast<double>(calls);
}

/// Evenly strided subset of [0, n) of at most `cap` indices.
std::vector<std::size_t> strided(std::size_t n, std::size_t cap) {
    std::vector<std::size_t> idx;
    const std::size_t step = std::max<std::size_t>(1, (n + cap - 1) / cap);
    for (std::size_t i = 0; i < n; i += step) idx.push_back(i);
    return idx;
}

double ring_handoff_ns() {
    constexpr std::size_t kItems = 200'000;
    MpmcRing<std::uint64_t> ring(1024);
    const Pacer clock;
    std::thread consumer([&] {
        std::uint64_t v = 0;
        for (std::size_t got = 0; got < kItems;) {
            if (ring.try_pop(v)) {
                ++got;
            } else {
                std::this_thread::yield();
            }
        }
    });
    for (std::uint64_t i = 0; i < kItems; ++i) {
        while (!ring.try_push(i)) std::this_thread::yield();
    }
    consumer.join();
    return clock.now() / static_cast<double>(kItems) * 1e9;
}

}  // namespace

void add_layer_metrics(Ctx& ctx, const Phase& ref, const std::vector<graph::Graph>& graphs,
                       double latency_p50_s, Report& report, SpanLog& spans) {
    const WorkloadDef& def = ctx.def;
    World& world = ctx.world;
    const bool graph_api = def.api == Api::kGraph;
    const std::size_t sent = std::max<std::size_t>(ref.stream.size(), 1);
    const auto share = [&](std::size_t k) {
        return static_cast<double>(k) / static_cast<double>(sent);
    };

    // --- serve: what the reference phase saw ---------------------------
    std::vector<double> queue_s;
    std::size_t refused = 0, shed = 0, evicted = 0, completed = 0, retries = 0, hedged = 0;
    std::vector<std::size_t> per_device(world.registry.size(), 0);
    std::map<BatchKey, BatchInfo> batches;
    for (std::size_t i = 0; i < ref.stream.size(); ++i) {
        const Outcome& o = ref.out[i];
        const RequestSpec& r = ref.stream[i];
        switch (o.status) {
            case serve::RequestStatus::kRejectedFull: ++refused; break;
            case serve::RequestStatus::kShedDeadline: ++shed; break;
            case serve::RequestStatus::kEvicted: ++evicted; break;
            default: break;
        }
        if (o.status != serve::RequestStatus::kCompleted) continue;
        ++completed;
        queue_s.push_back(graph_api ? o.start_s - o.sent_s : o.queue_s);
        retries += o.attempts - 1;
        hedged += o.hedged ? 1 : 0;
        if (o.device >= 0) {
            ++per_device[static_cast<std::size_t>(o.device)];
            batches.emplace(BatchKey{o.device, o.start_sim_s},
                            BatchInfo{r.model, r.policy, o.batch, o.device});
        }
    }
    const double completed_d = static_cast<double>(std::max<std::size_t>(completed, 1));
    const std::vector<double> submit_s = spans.durations(SpanName::kSubmit);
    const double submit_p50 = graph_api ? 0.0 : percentile(submit_s, 0.5);
    report.add("serve.submit_us.p50", submit_p50 * 1e6, "us", "wall", submit_s.size());
    report.add("serve.submit_us.p99", graph_api ? 0.0 : percentile(submit_s, 0.99) * 1e6, "us",
               "wall", submit_s.size());
    const double queue_p50 = percentile(queue_s, 0.5);
    report.add("serve.queue_wait_ms.p50", queue_p50 * 1e3, "ms", "wall", queue_s.size());
    report.add("serve.queue_wait_ms.p99", percentile(queue_s, 0.99) * 1e3, "ms", "wall",
               queue_s.size());
    const auto totals = ref.snapshot.totals();
    report.add("serve.batch_mean",
               totals.batches_executed > 0 ? static_cast<double>(totals.coalesced_requests) /
                                                 static_cast<double>(totals.batches_executed)
                                           : 0.0,
               "count", "-", totals.batches_executed);
    report.add("serve.refused_share", share(refused), "ratio", "-", sent);
    report.add("serve.shed_share", share(shed), "ratio", "-", sent);
    report.add("serve.evicted_share", share(evicted), "ratio", "-", sent);
    report.add("serve.retries_per_req", static_cast<double>(retries) / completed_d, "count", "-",
               completed);
    report.add("serve.hedged_share", static_cast<double>(hedged) / completed_d, "ratio", "-",
               completed);
    report.add("serve.backlog_max", static_cast<double>(ref.backlog_max), "count", "-", sent);
    report.add("serve.allocs_per_req",
               ref.steady_requests > 0 ? static_cast<double>(ref.steady_allocs) /
                                             static_cast<double>(ref.steady_requests)
                                       : 0.0,
               "count", "-", ref.steady_requests);

    // --- sched / ml: replay the executed batches' decisions ------------
    std::vector<BatchInfo> batch_list;
    for (const auto& [key, info] : batches) batch_list.push_back(info);
    {
        std::vector<BatchInfo> sample;
        for (const std::size_t i : strided(batch_list.size(), 2000)) {
            sample.push_back(batch_list[i]);
        }
        batch_list.swap(sample);
    }
    const auto devices = world.registry.devices();
    double snapshot_decide_s = 0.0, predict_s = 0.0, decide_s = 0.0, agreement = 0.0;
    if (!batch_list.empty()) {
        const auto snapshot = world.scheduler->build_snapshot(0.0);
        std::vector<double> scratch(snapshot->scratch_size());
        std::size_t sink = 0;
        snapshot_decide_s = time_per_call(batch_list.size(), 0.02, [&](std::size_t i) {
            const BatchInfo& b = batch_list[i];
            sink += snapshot->decide(world.models[b.model], b.policy, b.samples, scratch)
                        .device->name()
                        .size();
        });
        std::vector<std::array<double, sched::kFeatureCount>> rows;
        for (const BatchInfo& b : batch_list) {
            auto row = snapshot->find_model(world.models[b.model])->base;
            row[0] = static_cast<double>(b.policy);
            row[8] = static_cast<double>(b.samples);
            row[9] = snapshot->gpu_warm ? 1.0 : 0.0;
            rows.push_back(row);
        }
        const std::span<double> model_scratch(scratch);
        predict_s = time_per_call(rows.size(), 0.02, [&](std::size_t i) {
            sink += static_cast<std::size_t>(
                snapshot->predictor->predict_label(rows[i], model_scratch));
        });
        decide_s = time_per_call(batch_list.size(), 0.02, [&](std::size_t i) {
            const BatchInfo& b = batch_list[i];
            sink += world.scheduler->decide({world.models[b.model], b.samples, b.policy}, 0.0)
                        .device_name.size();
        });
        if (sink == 0) report.notes.push_back("empty decisions");

        // Oracle on a noise-free, idle twin of the testbed. The live GPU
        // state is not visible from outside, so the oracle is asked for the
        // warm GPU a loaded server keeps.
        device::DeviceRegistry twin = device::DeviceRegistry::standard_testbed();
        sched::Dispatcher twin_dispatcher(twin);
        for (const std::string& name : world.models) {
            twin_dispatcher.register_model(nn::zoo::by_name(name), 7);
        }
        twin_dispatcher.deploy_all();
        sched::Oracle oracle(twin);
        std::map<std::tuple<std::uint32_t, std::size_t, int>, std::string> best;
        std::size_t agree = 0;
        for (const BatchInfo& b : batch_list) {
            const auto key = std::make_tuple(b.model, b.samples, static_cast<int>(b.policy));
            auto it = best.find(key);
            if (it == best.end()) {
                it = best.emplace(key, oracle.decide(world.models[b.model], b.samples,
                                                     sched::GpuState::kWarm, b.policy)
                                           .best_device)
                         .first;
            }
            if (devices[static_cast<std::size_t>(b.device)]->name() == it->second) ++agree;
        }
        agreement = static_cast<double>(agree) / static_cast<double>(batch_list.size());
    }
    report.add("sched.snapshot_decide_ns", snapshot_decide_s * 1e9, "ns", "wall",
               batch_list.size());
    report.add("ml.predict_ns", predict_s * 1e9, "ns", "wall", batch_list.size());
    report.add("sched.decide_us", decide_s * 1e6, "us", "wall", batch_list.size());
    report.add("sched.oracle_agreement", agreement, "ratio", "model", batch_list.size());
    for (std::size_t d = 0; d < devices.size(); ++d) {
        report.add("sched.device_share." + devices[d]->name(),
                   static_cast<double>(per_device[d]) / completed_d, "ratio", "model", completed);
    }

    // --- nn: single-thread forward on the executed batch shapes --------
    // Mean forward seconds per (model, samples), for the blocking path.
    std::map<std::pair<std::uint32_t, std::size_t>, std::pair<double, std::size_t>> forward_of;
    for (const std::string& name : nn_models()) {
        const auto it = std::find(world.models.begin(), world.models.end(), name);
        double us_per_sample = 0.0, gflops = 0.0, allocs = 0.0;
        std::size_t forwards = 0;
        if (it != world.models.end() && !batch_list.empty()) {
            const auto model_idx = static_cast<std::uint32_t>(it - world.models.begin());
            const nn::Model& model = world.dispatcher.model(name);
            const PayloadPool& pool = ctx.pools[model_idx];
            double seconds = 0.0, flops = 0.0;
            std::size_t samples = 0;
            std::uint64_t alloc_count = 0;
            const Pacer budget;
            for (const BatchInfo& b : batch_list) {
                if (b.model != model_idx) continue;
                if (budget.now() > 1.5) break;
                Tensor input(model.input_shape(b.samples));
                for (std::size_t k = 0; k < input.numel(); ++k) {
                    input.data()[k] = pool.rows[k % pool.rows.size()];
                }
                const std::uint64_t a0 = allocations();
                const double t0 = budget.now();
                const Tensor out = model.forward(input);
                const double t1 = budget.now();
                alloc_count += allocations() - a0;
                spans.add(SpanName::kForward, static_cast<std::uint32_t>(forwards), t0, t1);
                seconds += t1 - t0;
                flops += model.cost(b.samples).total.flops;
                samples += b.samples;
                ++forwards;
                auto& [sum, count] = forward_of[{model_idx, b.samples}];
                sum += t1 - t0;
                ++count;
            }
            if (forwards > 0 && seconds > 0.0) {
                us_per_sample = seconds / static_cast<double>(samples) * 1e6;
                gflops = flops / seconds / 1e9;
                allocs = static_cast<double>(alloc_count) / static_cast<double>(forwards);
            }
        }
        report.add("nn.forward_us_per_sample." + name, us_per_sample, "us", "wall", forwards);
        report.add("nn.gflops." + name, gflops, "GFLOP/s", "wall", forwards);
        report.add("nn.allocs_per_forward." + name, allocs, "count", "-", forwards);
    }

    // --- device: pricing without data, and model-time busy ------------
    double price_s = 0.0;
    if (!batch_list.empty()) {
        std::vector<Tensor> inputs;
        for (const BatchInfo& b : batch_list) {
            inputs.emplace_back(Shape{b.samples, ctx.pools[b.model].elems});
        }
        const device::SubmitOptions price_only{.compute_outputs = false};
        price_s = time_per_call(batch_list.size(), 0.02, [&](std::size_t i) {
            const BatchInfo& b = batch_list[i];
            (void)devices[static_cast<std::size_t>(b.device)]->run(world.models[b.model],
                                                                   inputs[i], 0.0, price_only);
        });
        world.reset();
    }
    report.add("device.price_us", price_s * 1e6, "us", "wall", batch_list.size());
    double busy_s = 0.0;
    if (graph_api) {
        for (std::size_t i = 0; i < ref.executed.size(); ++i) {
            if (ref.out[i].status != serve::RequestStatus::kCompleted) continue;
            for (const graph::Step& step : ref.executed[i].steps) busy_s += step.duration_s();
        }
    } else {
        std::map<BatchKey, double> seen;
        for (const Outcome& o : ref.out) {
            if (o.status == serve::RequestStatus::kCompleted && o.device >= 0) {
                seen.emplace(BatchKey{o.device, o.start_sim_s}, o.busy_s);
            }
        }
        for (const auto& [key, busy] : seen) busy_s += busy;
    }
    report.add("device.busy_ms_per_req", busy_s / completed_d * 1e3, "ms", "model", completed);
    report.add("device.backlog_s", ref.device_backlog_s, "s", "model", 1);

    // --- graph: replay the dag stream's planner, verifier and booking --
    double cold_p50 = 0.0, hit_p50 = 0.0, verify_p50 = 0.0, run_p50 = 0.0, hit_share = 0.0;
    std::vector<double> graph_path_s;
    std::size_t graph_samples = 0;
    if (graph_api) {
        std::vector<graph::PlannerDevice> idle;
        for (const device::Device* dev : devices) idle.push_back({dev->params(), 0.0, 1.0});
        const graph::GraphPlanner cold_planner;
        std::vector<double> cold, hit, verify, run;
        const Pacer clock;
        const auto hot = static_cast<std::uint32_t>(ctx.hot_graphs.size());
        for (const std::size_t i : strided(ref.stream.size(), 2000)) {
            const RequestSpec& r = ref.stream[i];
            const graph::Graph& g = graphs[r.graph];
            const auto objective = r.policy == sched::Policy::kMinEnergy
                                       ? graph::Objective::kEnergy
                                       : graph::Objective::kMakespan;
            const auto idx = static_cast<std::uint32_t>(i);
            double path = 0.0;
            double t0 = clock.now();
            if (r.graph >= hot) {
                (void)cold_planner.plan(g, idle, objective);
                const double t1 = clock.now();
                cold.push_back(t1 - t0);
                spans.add(SpanName::kPlanCold, idx, t0, t1);
                path += t1 - t0;
                t0 = t1;
            }
            const graph::Schedule planned = world.scheduler->plan_graph(g, r.policy, 0.0);
            double t1 = clock.now();
            if (r.graph < hot) {
                hit.push_back(t1 - t0);
                spans.add(SpanName::kPlanHit, idx, t0, t1);
                path += t1 - t0;
            }
            t0 = clock.now();
            const bool ok = graph::verify_schedule(g, planned).empty();
            t1 = clock.now();
            verify.push_back(t1 - t0);
            spans.add(SpanName::kVerify, idx, t0, t1);
            if (!ok) report.correct = false;
            t0 = clock.now();
            (void)world.dispatcher.run_schedule(g, planned, 0.0);
            t1 = clock.now();
            run.push_back(t1 - t0);
            spans.add(SpanName::kRunSchedule, idx, t0, t1);
            // run_graph verifies the planned and the executed schedule.
            path += 2 * verify.back() + run.back();
            graph_path_s.push_back(path);
            world.reset();
        }
        graph_samples = graph_path_s.size();
        cold_p50 = percentile(cold, 0.5);
        hit_p50 = percentile(hit, 0.5);
        verify_p50 = percentile(verify, 0.5);
        run_p50 = percentile(run, 0.5);
        std::size_t ran = 0;
        for (const Outcome& o : ref.out) ran += o.status == serve::RequestStatus::kCompleted;
        hit_share = ran > 0 ? static_cast<double>(ref.plan_cache_hits) / static_cast<double>(ran)
                            : 0.0;
        if (cold.empty()) cold_p50 = 0.0;
        if (hit.empty()) hit_p50 = 0.0;
    }
    report.add("graph.plan_cold_us", cold_p50 * 1e6, "us", "wall", graph_samples);
    report.add("graph.plan_hit_us", hit_p50 * 1e6, "us", "wall", graph_samples);
    report.add("graph.cache_hit_share", hit_share, "ratio", "-", graph_samples);
    report.add("graph.verify_us", verify_p50 * 1e6, "us", "wall", graph_samples);
    report.add("graph.run_schedule_us", run_p50 * 1e6, "us", "wall", graph_samples);

    report.add("common.ring_handoff_ns", ring_handoff_ns(), "ns", "wall", 200'000);

    // --- blocking-path attribution against the observed median ---------
    double serve_path = submit_p50 + queue_p50;
    double sched_path = 0.0, nn_path = 0.0, device_path = 0.0;
    double graph_path = graph_path_s.empty() ? 0.0 : percentile(graph_path_s, 0.5);
    if (graph_api) {
        // run_graph's self time (what it does around the planner, verifier
        // and dispatcher calls) belongs to serve.
        const std::vector<double> run_graph_s = spans.durations(SpanName::kRunGraph);
        serve_path += std::max(0.0, percentile(run_graph_s, 0.5) - graph_path);
    } else {
        sched_path = def.api == Api::kTicket ? snapshot_decide_s : decide_s;
        device_path = price_s;
        std::vector<double> per_request_forward;
        for (std::size_t i = 0; i < ref.stream.size(); ++i) {
            const Outcome& o = ref.out[i];
            if (o.status != serve::RequestStatus::kCompleted) continue;
            const auto it = forward_of.find({ref.stream[i].model, o.batch});
            if (it != forward_of.end()) {
                per_request_forward.push_back(it->second.first /
                                              static_cast<double>(it->second.second));
            }
        }
        nn_path = per_request_forward.empty() ? 0.0 : percentile(per_request_forward, 0.5);
    }
    const double base = latency_p50_s > 0.0 ? latency_p50_s : 1.0;
    report.add("trace.share.serve", serve_path / base, "ratio", "wall", completed);
    report.add("trace.share.sched", sched_path / base, "ratio", "wall", completed);
    report.add("trace.share.nn", nn_path / base, "ratio", "wall", completed);
    report.add("trace.share.device", device_path / base, "ratio", "wall", completed);
    report.add("trace.share.graph", graph_path / base, "ratio", "wall", completed);
    report.add("trace.unattributed_share",
               1.0 - (serve_path + sched_path + nn_path + device_path + graph_path) / base,
               "ratio", "wall", completed);
}

}  // namespace pb
