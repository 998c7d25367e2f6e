// mw::serve unit + integration suite: the admission estimator, the Server's
// backpressure policies and lane fairness on a staged queue, dynamic
// batching, SLO shedding, and the Server end-to-end (all deterministic via
// ManualClock except the concurrent-submitter test, which doubles as TSan
// coverage under the `tsan` preset).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "common/units.hpp"
#include "ml/random_forest.hpp"
#include "nn/zoo.hpp"
#include "sched/scheduler.hpp"
#include "sched/scheduler_dataset.hpp"
#include "serve/server.hpp"
#include "workload/stream.hpp"

namespace {

using namespace mw;
using namespace mw::serve;

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

TEST(LatencyHistogram, EmptyHistogramPercentileIsNaN) {
    // 0.0 looked like a real (excellent!) latency in every report; NaN is
    // unambiguous "no data", and the renderers print it as a dash.
    LatencyHistogram hist;
    EXPECT_TRUE(std::isnan(hist.percentile(50.0)));
    EXPECT_TRUE(std::isnan(hist.percentile(99.0)));
    EXPECT_EQ(format_duration(hist.percentile(50.0)), "-");
}

TEST(LatencyHistogram, PercentilesTrackLogBuckets) {
    LatencyHistogram hist;
    for (int i = 1; i <= 1000; ++i) hist.add(static_cast<double>(i) * 1e-3);
    EXPECT_EQ(hist.count(), 1000U);
    const double p50 = hist.percentile(50.0);
    const double p95 = hist.percentile(95.0);
    const double p99 = hist.percentile(99.0);
    // Exact values are 0.5 / 0.95 / 0.99 s; buckets are ~12% wide.
    EXPECT_NEAR(p50, 0.5, 0.5 * 0.15);
    EXPECT_NEAR(p95, 0.95, 0.95 * 0.15);
    EXPECT_NEAR(p99, 0.99, 0.99 * 0.15);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
}

// ---------------------------------------------------------------------------
// AdmissionController: the execute-latency estimator deadline shedding uses
// ---------------------------------------------------------------------------

TEST(Admission, DeadlineShedUsesExecuteEstimator) {
    AdmissionController admission({.policy = BackpressurePolicy::kDeadlineShed});
    admission.observe_execute("slow-model", 5.0);
    EXPECT_GT(admission.estimated_execute_s("slow-model"), 4.0);

    // SLO 3 s < estimated 5 s execute: hopeless on arrival.
    EXPECT_TRUE(admission.deadline_unmeetable("slow-model", /*slo_s=*/3.0,
                                              /*arrival_s=*/0.0, /*now=*/0.0));
    // No SLO: never unmeetable regardless of the estimator.
    EXPECT_FALSE(admission.deadline_unmeetable("slow-model", 0.0, 0.0, 0.0));
    // A generous SLO turns unmeetable once the queue wait has eaten it.
    EXPECT_FALSE(admission.deadline_unmeetable("slow-model", 10.0, 0.0, 1.0));
    EXPECT_TRUE(admission.deadline_unmeetable("slow-model", 10.0, 0.0, 6.0));
}

TEST(Admission, ColdModelEstimateIsPriorNotZero) {
    AdmissionController admission({.policy = BackpressurePolicy::kDeadlineShed});
    EXPECT_GT(admission.estimated_execute_s("never-seen"), 0.0);
    EXPECT_NEAR(admission.estimated_execute_s("never-seen"),
                admission.config().cold_execute_prior_s, 1e-15);
    // Real observations override the prior.
    admission.observe_execute("never-seen", 0.25);
    EXPECT_NEAR(admission.estimated_execute_s("never-seen"), 0.25, 1e-12);
}

// ---------------------------------------------------------------------------
// Server end-to-end (real scheduler + devices, ManualClock)
// ---------------------------------------------------------------------------

struct ServeWorld {
    device::DeviceRegistry registry = device::DeviceRegistry::standard_testbed();
    sched::Dispatcher dispatcher{registry};
    std::optional<sched::OnlineScheduler> scheduler;
    ManualClock clock;

    explicit ServeWorld(std::vector<nn::ModelSpec> models = {nn::zoo::simple()}) {
        for (const nn::ModelSpec& model : models) dispatcher.register_model(model, 7);
        dispatcher.deploy_all();
        const auto dataset = sched::build_scheduler_dataset(
            registry, models, {.batches = {1, 4, 16}});
        sched::DevicePredictor predictor(
            std::make_unique<ml::RandomForest>(ml::ForestConfig{.n_estimators = 8, .seed = 3}),
            dataset.device_names);
        predictor.fit(dataset);
        scheduler.emplace(dispatcher, std::move(predictor), dataset,
                          sched::SchedulerConfig{.explore_probability = 0.0});
        for (device::Device* dev : registry.devices()) dev->reset_timeline();
    }

    InferenceRequest request(Tensor payload,
                             sched::Policy policy = sched::Policy::kMaxThroughput,
                             double slo_s = 0.0) {
        return InferenceRequest{"simple", std::move(payload), policy, slo_s};
    }
};

TEST(Server, CompletesRequestsWithCorrectOutputs) {
    ServeWorld world;
    ServerConfig config;
    config.workers = 2;
    config.batching.enabled = false;
    Server server(*world.scheduler, world.dispatcher, world.clock, config);

    workload::SyntheticSource source(99);
    std::vector<Tensor> payloads;
    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 16; ++i) {
        payloads.push_back(source.next_batch(3, 4));
        futures.push_back(server.submit(world.request(Tensor(payloads.back()))));
    }
    for (int i = 0; i < 16; ++i) {
        Response response = futures[static_cast<std::size_t>(i)].get();
        ASSERT_EQ(response.status, RequestStatus::kCompleted) << response.error;
        EXPECT_EQ(response.coalesced, 1U);
        // Outputs must equal a direct forward pass of the same payload.
        Tensor shaped(world.dispatcher.model("simple").input_shape(3));
        std::copy_n(payloads[static_cast<std::size_t>(i)].data(), shaped.numel(),
                    shaped.data());
        const Tensor reference = world.dispatcher.model("simple").forward(shaped);
        EXPECT_EQ(response.outputs.max_abs_diff(reference), 0.0F);
    }
    server.stop();
    const auto totals = server.stats().totals();
    EXPECT_EQ(totals.submitted, 16U);
    EXPECT_EQ(totals.completed, 16U);
    EXPECT_EQ(totals.samples, 48.0);
}

TEST(Server, DynamicBatchingCoalescesSameModelRequests) {
    ServeWorld world;
    ServerConfig config;
    config.workers = 1;
    config.batching = {.enabled = true, .max_requests = 4, .max_samples = 1024,
                       .max_wait_s = 3600.0};
    Server server(*world.scheduler, world.dispatcher, world.clock, config);

    workload::SyntheticSource source(5);
    std::vector<Tensor> payloads;
    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 4; ++i) {
        payloads.push_back(source.next_batch(2, 4));
        futures.push_back(server.submit(world.request(Tensor(payloads.back()))));
    }
    // The ManualClock never reaches the max-wait deadline, so the single
    // worker must assemble the full 4-request batch before executing.
    for (int i = 0; i < 4; ++i) {
        Response response = futures[static_cast<std::size_t>(i)].get();
        ASSERT_EQ(response.status, RequestStatus::kCompleted) << response.error;
        EXPECT_EQ(response.coalesced, 4U);
        EXPECT_EQ(response.measurement.batch, 8U) << "4 requests x 2 samples";
        // Slicing must hand every member its own rows.
        Tensor shaped(world.dispatcher.model("simple").input_shape(2));
        std::copy_n(payloads[static_cast<std::size_t>(i)].data(), shaped.numel(),
                    shaped.data());
        const Tensor reference = world.dispatcher.model("simple").forward(shaped);
        EXPECT_EQ(response.outputs.max_abs_diff(reference), 0.0F);
    }
    const auto totals = server.stats().totals();
    EXPECT_EQ(totals.batches_executed, 1U);
    EXPECT_EQ(totals.coalesced_requests, 4U);
}

TEST(Server, ManualClockFlushesPartialBatch) {
    ServeWorld world;
    ServerConfig config;
    config.workers = 1;
    config.batching = {.enabled = true, .max_requests = 4, .max_samples = 1024,
                       .max_wait_s = 50.0};
    Server server(*world.scheduler, world.dispatcher, world.clock, config);

    workload::SyntheticSource source(6);
    auto f1 = server.submit(world.request(source.next_batch(2, 4)));
    auto f2 = server.submit(world.request(source.next_batch(2, 4)));
    // Wait until the aggregator holds both requests: its max-wait deadline is
    // anchored at the leader pop, which must happen before the clock jumps
    // (otherwise the deadline lands at t=51+50 and the flush never comes).
    while (server.queue_depth() != 0) sleep_for_seconds(0.001);
    // Only 2 of 4 slots filled; advancing past max_wait flushes the batch.
    world.clock.advance(51.0);
    EXPECT_EQ(f1.get().coalesced, 2U);
    EXPECT_EQ(f2.get().coalesced, 2U);
}

TEST(Server, FullQueueShedsInsteadOfBlocking) {
    ServeWorld world;
    ServerConfig config;
    config.workers = 1;
    config.queue_capacity = 4;
    config.batching.enabled = false;
    config.start_on_construction = false;  // stage the overload deterministically
    Server server(*world.scheduler, world.dispatcher, world.clock, config);

    workload::SyntheticSource source(7);
    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 6; ++i) {
        futures.push_back(server.submit(world.request(source.next_batch(1, 4))));
    }
    // Submissions 5 and 6 found the queue full: already resolved, no block.
    EXPECT_EQ(futures[4].get().status, RequestStatus::kRejectedFull);
    EXPECT_EQ(futures[5].get().status, RequestStatus::kRejectedFull);

    server.start();
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(futures[static_cast<std::size_t>(i)].get().status,
                  RequestStatus::kCompleted);
    }
    server.stop();
    const auto totals = server.stats().totals();
    EXPECT_EQ(totals.submitted, 6U);
    EXPECT_EQ(totals.completed, 4U);
    EXPECT_EQ(totals.rejected_full, 2U);
}

TEST(Server, StopWithoutDrainCompletesPendingAsShutdown) {
    ServeWorld world;
    ServerConfig config;
    config.workers = 1;
    config.drain_on_stop = false;
    config.start_on_construction = false;
    Server server(*world.scheduler, world.dispatcher, world.clock, config);

    workload::SyntheticSource source(8);
    auto pending = server.submit(world.request(source.next_batch(1, 4)));
    server.stop();
    EXPECT_EQ(pending.get().status, RequestStatus::kShutdown);

    // Submissions after stop() resolve immediately as shutdown.
    auto late = server.submit(world.request(source.next_batch(1, 4)));
    EXPECT_EQ(late.get().status, RequestStatus::kShutdown);
}

// ---------------------------------------------------------------------------
// Backpressure and fairness on a staged queue: no worker runs until start(),
// so what admission did is visible before anything executes. One worker
// means one shard, so every lane is one ring.
// ---------------------------------------------------------------------------

ServerConfig staged(BackpressurePolicy policy, std::size_t capacity) {
    ServerConfig config;
    config.workers = 1;
    config.queue_capacity = capacity;
    config.admission.policy = policy;
    config.batching.enabled = false;  // ManualClock: a partial batch would wait forever
    config.start_on_construction = false;
    return config;
}

TEST(Server, RejectNewestRefusesIncomingAndServesFifo) {
    ServeWorld world;
    Server server(*world.scheduler, world.dispatcher, world.clock,
                  staged(BackpressurePolicy::kRejectNewest, 2));
    workload::SyntheticSource source(12);
    auto a = server.submit(world.request(source.next_batch(1, 4)));
    auto b = server.submit(world.request(source.next_batch(1, 4)));
    auto c = server.submit(world.request(source.next_batch(1, 4)));
    ASSERT_EQ(c.wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << "a full queue refuses without blocking";
    EXPECT_EQ(c.get().status, RequestStatus::kRejectedFull);
    EXPECT_EQ(server.queue_depth(), 2U);

    server.start();
    const Response ra = a.get();
    const Response rb = b.get();
    ASSERT_TRUE(ra.ok() && rb.ok());
    ASSERT_EQ(ra.device_name, rb.device_name);
    EXPECT_LT(ra.measurement.start_time, rb.measurement.start_time)
        << "one lane drains in FIFO order";
    server.stop();
    const auto t = server.stats().totals();
    EXPECT_EQ(t.submitted, 3U);
    EXPECT_EQ(t.admitted, 2U);
    EXPECT_EQ(t.rejected_full, 1U);
    EXPECT_EQ(t.completed, 2U);
}

TEST(Server, RejectOldestEvictsLaneHeadAndAdmitsNewcomer) {
    ServeWorld world;
    Server server(*world.scheduler, world.dispatcher, world.clock,
                  staged(BackpressurePolicy::kRejectOldest, 2));
    workload::SyntheticSource source(13);
    auto a = server.submit(world.request(source.next_batch(1, 4)));
    world.clock.advance(1.0);
    auto b = server.submit(world.request(source.next_batch(1, 4)));
    world.clock.advance(1.0);
    auto c = server.submit(world.request(source.next_batch(1, 4)));
    ASSERT_EQ(a.wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << "the lane head is evicted at admission, before any worker runs";
    EXPECT_EQ(a.get().status, RequestStatus::kEvicted);
    EXPECT_EQ(server.queue_depth(), 2U);

    server.start();
    EXPECT_EQ(b.get().status, RequestStatus::kCompleted);
    EXPECT_EQ(c.get().status, RequestStatus::kCompleted) << "the newcomer is served";
    server.stop();
    const auto t = server.stats().totals();
    EXPECT_EQ(t.submitted, 3U);
    EXPECT_EQ(t.admitted, 3U);
    EXPECT_EQ(t.evicted, 1U);
    EXPECT_EQ(t.completed, 2U);
    EXPECT_EQ(t.rejected_full, 0U);
}

TEST(Server, RejectOldestTakesTheNewcomersLaneHeadNotTheGlobalOldest) {
    // Deliberate deviation from a global-oldest eviction: rings cannot be
    // searched, so the victim is the head of the newcomer's own lane when
    // it has one, even if another lane holds an older request.
    ServeWorld world;
    Server server(*world.scheduler, world.dispatcher, world.clock,
                  staged(BackpressurePolicy::kRejectOldest, 2));
    workload::SyntheticSource source(14);
    auto older = server.submit(
        world.request(source.next_batch(1, 4), sched::Policy::kMinLatency));
    world.clock.advance(1.0);
    auto head = server.submit(world.request(source.next_batch(1, 4)));
    world.clock.advance(1.0);
    auto newcomer = server.submit(world.request(source.next_batch(1, 4)));
    ASSERT_EQ(head.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_EQ(head.get().status, RequestStatus::kEvicted);
    EXPECT_EQ(older.wait_for(std::chrono::seconds(0)), std::future_status::timeout);

    server.start();
    EXPECT_EQ(older.get().status, RequestStatus::kCompleted);
    EXPECT_EQ(newcomer.get().status, RequestStatus::kCompleted);
    server.stop();
    EXPECT_EQ(server.stats().totals().evicted, 1U);
}

TEST(Server, RejectOldestRefilledLaneKeepsItsTurn) {
    // Deliberate deviation (DESIGN.md §8): eviction runs on the producer and
    // cannot move a worker's lane cursor. When it empties the lane the
    // cursor points at and the newcomer refills it, that lane keeps its
    // turn, so the newcomer runs before older requests in other lanes. (A
    // searchable queue re-anchored its cursor past the emptied lane.)
    ServeWorld world;
    Server server(*world.scheduler, world.dispatcher, world.clock,
                  staged(BackpressurePolicy::kRejectOldest, 3));
    workload::SyntheticSource source(19);
    const sched::Policy order[] = {sched::Policy::kMaxThroughput,
                                   sched::Policy::kMinLatency, sched::Policy::kMinEnergy,
                                   sched::Policy::kMaxThroughput};
    std::vector<std::future<Response>> futures;
    for (const sched::Policy policy : order) {
        futures.push_back(server.submit(world.request(source.next_batch(1, 4), policy)));
        world.clock.advance(1.0);
    }
    ASSERT_EQ(futures[0].wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_EQ(futures[0].get().status, RequestStatus::kEvicted);

    // One worker: its cursor starts on the kMaxThroughput lane.
    server.start();
    std::vector<std::pair<double, std::size_t>> executed;  // (start time, submit index)
    std::string device;
    for (std::size_t i = 1; i < futures.size(); ++i) {
        const Response response = futures[i].get();
        ASSERT_TRUE(response.ok()) << response.error;
        if (device.empty()) device = response.device_name;
        ASSERT_EQ(response.device_name, device) << "every policy picks one device here";
        executed.emplace_back(response.measurement.start_time, i);
    }
    server.stop();
    std::sort(executed.begin(), executed.end());
    ASSERT_EQ(executed.size(), 3U);
    EXPECT_EQ(executed[0].second, 3U) << "the newcomer in the refilled lane goes first";
    EXPECT_EQ(executed[1].second, 1U);
    EXPECT_EQ(executed[2].second, 2U);
}

TEST(Server, DeadlineShedDropsExpiredQueueEntries) {
    ServeWorld world;
    Server server(*world.scheduler, world.dispatcher, world.clock,
                  staged(BackpressurePolicy::kDeadlineShed, 2));
    workload::SyntheticSource source(15);
    auto a = server.submit(world.request(source.next_batch(1, 4),
                                         sched::Policy::kMaxThroughput, /*slo_s=*/1.0));
    auto b = server.submit(world.request(source.next_batch(1, 4),
                                         sched::Policy::kMaxThroughput, /*slo_s=*/100.0));
    // By t=2 request a's 1 s SLO is blown, but it stays queued: rings cannot
    // remove from the middle, so a full queue refuses the newcomer instead.
    world.clock.advance(2.0);
    auto c = server.submit(world.request(source.next_batch(1, 4)));
    ASSERT_EQ(c.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_EQ(c.get().status, RequestStatus::kRejectedFull);
    EXPECT_EQ(a.wait_for(std::chrono::seconds(0)), std::future_status::timeout);

    // The worker re-checks at dispatch: a is shed there and never executes.
    server.start();
    EXPECT_EQ(a.get().status, RequestStatus::kShedDeadline);
    EXPECT_EQ(b.get().status, RequestStatus::kCompleted);
    server.stop();
    const auto t = server.stats().totals();
    EXPECT_EQ(t.shed, 1U);
    EXPECT_EQ(t.rejected_full, 1U);
    EXPECT_EQ(t.completed, 1U);
    EXPECT_EQ(t.batches_executed, 1U) << "the shed request never reached a device";
    EXPECT_EQ(t.admitted, t.completed + t.shed);
}

TEST(Server, DeadlineShedShedsColdModelOnArrival) {
    // Regression: the execute estimate for a model with no observations was
    // 0, so deadline-shed admitted every cold-model request no matter how
    // tight its SLO — "hopeless on arrival" only worked after the EWMA
    // warmed up.
    ServeWorld world;
    Server server(*world.scheduler, world.dispatcher, world.clock,
                  staged(BackpressurePolicy::kDeadlineShed, 8));
    workload::SyntheticSource source(16);
    auto hopeless = server.submit(world.request(
        source.next_batch(1, 4), sched::Policy::kMinLatency, /*slo_s=*/1e-4));  // below the 1e-3 prior
    ASSERT_EQ(hopeless.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_EQ(hopeless.get().status, RequestStatus::kShedDeadline);
    EXPECT_EQ(server.queue_depth(), 0U);

    // A feasible SLO (above the prior) is admitted and served.
    auto ok = server.submit(world.request(source.next_batch(1, 4),
                                          sched::Policy::kMinLatency, /*slo_s=*/1.0));
    server.start();
    EXPECT_EQ(ok.get().status, RequestStatus::kCompleted);
    server.stop();
    const auto t = server.stats().totals();
    EXPECT_EQ(t.submitted, 2U);
    EXPECT_EQ(t.shed, 1U);
    EXPECT_EQ(t.admitted, 1U);
}

TEST(Server, OneWorkerRoundRobinsAcrossLanes) {
    ServeWorld world;
    Server server(*world.scheduler, world.dispatcher, world.clock,
                  staged(BackpressurePolicy::kRejectNewest, 8));
    workload::SyntheticSource source(17);
    const sched::Policy order[] = {sched::Policy::kMaxThroughput,
                                   sched::Policy::kMaxThroughput,
                                   sched::Policy::kMinLatency, sched::Policy::kMinEnergy};
    std::vector<std::future<Response>> futures;
    for (const sched::Policy policy : order) {
        futures.push_back(server.submit(world.request(source.next_batch(1, 4), policy)));
    }
    server.start();
    std::vector<std::pair<double, sched::Policy>> executed;
    std::string device;
    for (std::size_t i = 0; i < futures.size(); ++i) {
        const Response response = futures[i].get();
        ASSERT_TRUE(response.ok()) << response.error;
        // The shared device timeline orders the executions.
        if (device.empty()) device = response.device_name;
        ASSERT_EQ(response.device_name, device) << "every policy picks one device here";
        executed.emplace_back(response.measurement.start_time, order[i]);
    }
    server.stop();
    std::sort(executed.begin(), executed.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    // One lane is not drained back-to-back while others hold requests: the
    // first three executions cover all three policies.
    EXPECT_NE(executed[0].second, executed[1].second);
    EXPECT_NE(executed[1].second, executed[2].second);
    EXPECT_NE(executed[0].second, executed[2].second);
}

TEST(Server, BatchesNeverMixPolicies) {
    ServeWorld world;
    ServerConfig config = staged(BackpressurePolicy::kRejectNewest, 8);
    config.batching = {.enabled = true, .max_requests = 4, .max_samples = 1024,
                       .max_wait_s = 3600.0};
    Server server(*world.scheduler, world.dispatcher, world.clock, config);
    workload::SyntheticSource source(18);
    std::vector<std::future<Response>> throughput, latency;
    for (int i = 0; i < 2; ++i) {
        throughput.push_back(server.submit(world.request(source.next_batch(1, 4))));
        latency.push_back(server.submit(
            world.request(source.next_batch(1, 4), sched::Policy::kMinLatency)));
    }
    server.start();
    // The throughput pair is sealed at once because the latency lane still
    // holds work; the latency pair then waits out max_wait on the clock.
    for (auto& f : throughput) EXPECT_EQ(f.get().coalesced, 2U);
    // Advance only once the worker holds both latency requests, so their
    // max-wait deadline is anchored before the clock jumps.
    while (server.queue_depth() != 0) sleep_for_seconds(0.001);
    world.clock.advance(3601.0);
    for (auto& f : latency) EXPECT_EQ(f.get().coalesced, 2U);
    server.stop();
    EXPECT_EQ(server.stats().totals().batches_executed, 2U);
}

/// `simple` under another name: same payload width, so a batch that mixed
/// the two would execute instead of failing, and only `coalesced` shows it.
nn::ModelSpec simple_twin() {
    nn::ModelSpec spec = nn::zoo::simple();
    spec.name = "simple-twin";
    return spec;
}

TEST(Server, BatchesNeverMixModels) {
    ServeWorld world({nn::zoo::simple(), simple_twin()});
    ServerConfig config = staged(BackpressurePolicy::kRejectNewest, 8);
    // max_wait 0: gather what is already queued, then seal.
    config.batching = {.enabled = true, .max_requests = 4, .max_samples = 1024,
                       .max_wait_s = 0.0};
    Server server(*world.scheduler, world.dispatcher, world.clock, config);
    workload::SyntheticSource source(20);
    auto s1 = server.submit(world.request(source.next_batch(1, 4)));
    auto s2 = server.submit(world.request(source.next_batch(1, 4)));
    Tensor twin_payload = source.next_batch(2, 4);
    auto twin = server.submit(InferenceRequest{"simple-twin", Tensor(twin_payload),
                                               sched::Policy::kMaxThroughput, 0.0});
    auto s3 = server.submit(world.request(source.next_batch(1, 4)));
    server.start();
    // The twin request is popped past and stashed; the simple mate queued
    // behind it still joins the first batch.
    for (auto* f : {&s1, &s2, &s3}) {
        const Response response = f->get();
        ASSERT_TRUE(response.ok()) << response.error;
        EXPECT_EQ(response.coalesced, 3U);
        EXPECT_EQ(response.measurement.batch, 3U);
    }
    const Response alone = twin.get();
    ASSERT_TRUE(alone.ok()) << alone.error;
    EXPECT_EQ(alone.coalesced, 1U) << "another model's request runs in its own batch";
    EXPECT_EQ(alone.measurement.batch, 2U);
    Tensor shaped(world.dispatcher.model("simple-twin").input_shape(2));
    std::copy_n(twin_payload.data(), shaped.numel(), shaped.data());
    EXPECT_EQ(alone.outputs.max_abs_diff(world.dispatcher.model("simple-twin").forward(shaped)),
              0.0F);
    server.stop();
    const auto t = server.stats().totals();
    EXPECT_EQ(t.batches_executed, 2U);
    EXPECT_EQ(t.coalesced_requests, 4U);
}

TEST(Server, BatchLeavesOutARequestPastTheSampleBudget) {
    ServeWorld world;
    ServerConfig config = staged(BackpressurePolicy::kRejectNewest, 8);
    config.batching = {.enabled = true, .max_requests = 4, .max_samples = 4,
                       .max_wait_s = 0.0};
    Server server(*world.scheduler, world.dispatcher, world.clock, config);
    workload::SyntheticSource source(21);
    auto a = server.submit(world.request(source.next_batch(2, 4)));
    auto b = server.submit(world.request(source.next_batch(1, 4)));
    auto big = server.submit(world.request(source.next_batch(3, 4)));  // 3 + 3 > 4
    server.start();
    for (auto* f : {&a, &b}) {
        const Response response = f->get();
        ASSERT_TRUE(response.ok()) << response.error;
        EXPECT_EQ(response.coalesced, 2U);
        EXPECT_EQ(response.measurement.batch, 3U);
    }
    const Response alone = big.get();
    ASSERT_TRUE(alone.ok()) << alone.error;
    EXPECT_EQ(alone.coalesced, 1U) << "joining would have exceeded max_samples";
    EXPECT_EQ(alone.measurement.batch, 3U);
    server.stop();
    EXPECT_EQ(server.stats().totals().batches_executed, 2U);
}

TEST(Server, ConcurrentSubmittersAllResolve) {
    ServeWorld world;
    WallClock wall;
    ServerConfig config;
    config.workers = 3;
    config.queue_capacity = 64;
    config.admission.policy = BackpressurePolicy::kRejectOldest;
    config.batching = {.enabled = true, .max_requests = 8, .max_samples = 4096,
                       .max_wait_s = 0.001};
    Server server(*world.scheduler, world.dispatcher, wall, config);

    constexpr std::size_t kClients = 4;
    constexpr std::size_t kPerClient = 40;
    workload::SyntheticSource source(11);
    ThreadPool clients(kClients);
    std::vector<std::future<void>> client_futures;
    std::array<std::atomic<std::size_t>, 2> outcome_counts{};  // [completed, other]
    for (std::size_t c = 0; c < kClients; ++c) {
        client_futures.push_back(clients.submit([&, c] {
            for (std::size_t i = 0; i < kPerClient; ++i) {
                const auto policy = static_cast<sched::Policy>((c + i) % kPolicyLanes);
                auto future = server.submit(
                    InferenceRequest{"simple", source.next_batch(2, 4), policy});
                const Response response = future.get();
                outcome_counts[response.ok() ? 0 : 1].fetch_add(
                    1, std::memory_order_relaxed);
            }
        }));
    }
    for (auto& f : client_futures) f.get();
    server.stop();

    const auto totals = server.stats().totals();
    EXPECT_EQ(totals.submitted, kClients * kPerClient);
    EXPECT_EQ(outcome_counts[0].load(), totals.completed);
    EXPECT_EQ(totals.completed + totals.rejected_full + totals.evicted + totals.shed +
                  totals.failed + totals.shutdown,
              kClients * kPerClient);
    EXPECT_EQ(totals.failed, 0U);
    EXPECT_GT(totals.completed, 0U);
}

}  // namespace
