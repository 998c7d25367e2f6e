#include "serve/server.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <exception>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "fault/fault.hpp"
#include "graph/verify.hpp"
#include "obs/shard.hpp"
#include "obs/trace.hpp"

namespace mw::serve {
namespace {

/// Concatenate the batch members' payload rows into one (total, elems)
/// tensor. Widths must agree — they do for one model's traffic; a malformed
/// payload surfaces as MW_CHECK -> the batch fails with kFailed responses.
Tensor coalesce_payloads(const PendingBatch& batch) {
    const Request& first = batch.requests.front();
    const std::size_t elems = first.payload.numel() / first.samples;
    Tensor out(Shape{batch.total_samples, elems});
    std::size_t row = 0;
    for (const Request& r : batch.requests) {
        MW_CHECK(r.payload.numel() == r.samples * elems,
                 "payload width mismatch inside batch for model " + r.model_name);
        std::memcpy(out.data() + row * elems, r.payload.data(),
                    r.payload.numel() * sizeof(float));
        row += r.samples;
    }
    return out;
}

/// Copy one request's rows back out of the batch output tensor.
Tensor slice_rows(const Tensor& outputs, std::size_t row_offset, std::size_t rows,
                  std::size_t elems_per_sample) {
    Tensor out(Shape{rows, elems_per_sample});
    std::memcpy(out.data(), outputs.data() + row_offset * elems_per_sample,
                rows * elems_per_sample * sizeof(float));
    return out;
}

/// Real-time idle/steal-retry sleep slice on the hot path (mirrors the
/// legacy batcher's kMaxWaitSliceS rationale: accumulate, don't wake-per-push).
constexpr double kHotIdleSliceS = 0.0005;

}  // namespace

/// Per-worker hot-path state. Owned by exactly one worker thread; the only
/// cross-thread surfaces are the queue/pool/snapshot-cell it drains and the
/// stats-shard flushes. Every container is reserved once — the steady state
/// re-uses this memory without allocating.
struct Server::HotWorker {
    std::size_t index = 0;
    std::size_t lane_cursor = 0;  ///< round-robin over policy lanes

    std::vector<HotRequest*> stash;  ///< popped non-matching requests (still "queued")
    std::vector<HotRequest*> batch;  ///< the batch being gathered/executed
    std::size_t batch_samples = 0;

    std::vector<double> scratch;  ///< snapshot-decide scratch
    Tensor input;                 ///< coalesced payload, storage reused

    /// Stats shards: counters batch into single flush-time RMWs; latency
    /// samples buffer locally and replay into the shared histograms at flush.
    struct LaneShard {
        obs::CounterShard completed, failed, shed, shutdown;
        obs::CounterShard batches_executed, coalesced_requests;
        obs::GaugeShard samples, bytes_in, energy_j;
        obs::LogHistogram* queue_hist = nullptr;
        obs::LogHistogram* execute_hist = nullptr;
        std::vector<double> queue_samples, execute_samples;
    };
    std::array<LaneShard, kPolicyLanes> lanes;
    std::size_t batches_since_flush = 0;
    std::size_t batches_since_refresh = 0;

    void flush_stats() {
        for (LaneShard& lane : lanes) {
            lane.completed.flush();
            lane.failed.flush();
            lane.shed.flush();
            lane.shutdown.flush();
            lane.batches_executed.flush();
            lane.coalesced_requests.flush();
            lane.samples.flush();
            lane.bytes_in.flush();
            lane.energy_j.flush();
            for (double s : lane.queue_samples) lane.queue_hist->add(s);
            for (double s : lane.execute_samples) lane.execute_hist->add(s);
            lane.queue_samples.clear();
            lane.execute_samples.clear();
        }
        batches_since_flush = 0;
    }
};

Server::Server(sched::OnlineScheduler& scheduler, sched::Dispatcher& dispatcher,
               const Clock& clock, ServerConfig config)
    : config_(config),
      clock_(&clock),
      scheduler_(&scheduler),
      dispatcher_(&dispatcher),
      graph_metrics_{stats_.mutable_registry().counter("mw_graph_runs_total"),
                     stats_.mutable_registry().counter("mw_graph_steps_total"),
                     stats_.mutable_registry().counter("mw_graph_fused_ops_total"),
                     stats_.mutable_registry().gauge("mw_graph_spill_seconds_total")},
      queue_(config.queue_capacity),
      admission_(config.admission, queue_, stats_),
      batcher_(config.batching, queue_, clock),
      pool_(std::make_unique<ThreadPool>(config.workers)) {
    MW_CHECK(config_.workers > 0, "server needs at least one worker");
    MW_CHECK(config_.worker_poll_s > 0.0, "worker_poll_s must be positive");
    if (config_.resilience.enabled) {
        health_ = std::make_unique<fault::DeviceHealthTracker>(
            config_.resilience.health, clock, &stats_.mutable_registry());
    }

    // The lock-free hot path replaces the mutexed queue funnel unless the
    // backpressure policy needs mid-queue eviction (rings cannot evict) —
    // kRejectOldest / kDeadlineShed keep the legacy path automatically.
    hot_active_ = config_.hot_path.enabled &&
                  config_.admission.policy == BackpressurePolicy::kRejectNewest;
    if (hot_active_) {
        // Arena sizing: everything queueable + every worker's in-flight
        // batch and stash + slack for tickets held by clients post-complete.
        std::size_t pool_capacity = config_.hot_path.pool_capacity;
        if (pool_capacity == 0) {
            pool_capacity = config_.queue_capacity +
                            config_.workers * config_.batching.max_requests * 5 + 64;
        }
        request_pool_ = std::make_unique<RequestPool>(pool_capacity);
        hot_queue_ = std::make_unique<ShardedRequestQueue>(config_.workers,
                                                           config_.queue_capacity);
        const MutexLock lock(scheduler_mutex_);
        snapshot_cell_ = std::make_unique<EpochCell<sched::SchedulerSnapshot>>(
            scheduler_->build_snapshot(clock_->now()));
    }
    if (config_.start_on_construction) start();
}

Server::~Server() { stop(); }

void Server::start() {
    MW_CHECK(!stopped_.load(std::memory_order_acquire),
             "a stopped server cannot be restarted");
    if (running_.exchange(true, std::memory_order_acq_rel)) return;
    workers_.reserve(config_.workers);
    for (std::size_t i = 0; i < config_.workers; ++i) {
        if (hot_active_) {
            workers_.push_back(pool_->submit([this, i] { hot_worker_loop(i); }));
        } else {
            workers_.push_back(pool_->submit([this] { worker_loop(); }));
        }
    }
}

void Server::stop() {
    if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
    const bool was_running = running_.exchange(false, std::memory_order_acq_rel);
    if (was_running && config_.drain_on_stop) {
        // Workers are still draining; wait for queue + in-flight to empty.
        while (queue_depth() > 0 || inflight_.load(std::memory_order_acquire) > 0) {
            sleep_for_seconds(0.0005);
        }
    }
    if (hot_active_) hot_queue_->close();
    queue_.close();
    for (auto& worker : workers_) worker.get();
    workers_.clear();
    // Anything still queued (stop without drain, or never started).
    if (hot_active_) {
        for (HotRequest* node : hot_queue_->drain()) {
            stats_.on_shutdown(node->policy);
            MW_TRACE_INSTANT(obs::Phase::kComplete, node->id, clock_->now(), "shutdown");
            hot_complete_terminal(node, RequestStatus::kShutdown);
        }
    }
    for (Request& r : queue_.drain()) {
        stats_.on_shutdown(r.policy);
        MW_TRACE_INSTANT(obs::Phase::kComplete, r.id, clock_->now(), "shutdown");
        r.complete(make_status_response(RequestStatus::kShutdown));
    }
    pool_.reset();
}

Server::GraphRunResult Server::run_graph(const graph::Graph& graph, sched::Policy policy) {
    // Plan OUTSIDE scheduler_mutex_: the planner's cache lock (rank
    // kGraphPlanner) sits below kScheduler, so planning under the scheduler
    // lock would be a rank violation — and is unnecessary, since plan_graph
    // only touches internally synchronised state. The pointer read is
    // sequenced under the mutex; the scheduler itself outlives the server.
    sched::OnlineScheduler* scheduler = nullptr;
    {
        const MutexLock lock(scheduler_mutex_);
        scheduler = scheduler_;
    }
    const double now = clock_->now();

    GraphRunResult out;
    out.planned = scheduler->plan_graph(graph, policy, now);

    const auto check = [this, &graph](const graph::Schedule& schedule, const char* which) {
        const auto violations = graph::verify_schedule(graph, schedule);
        if (!violations.empty()) {
            stats_.mutable_registry().counter("mw_graph_verify_failures_total").inc();
            throw StateError(std::string("graph `") + graph.name() + "` " + which +
                             " schedule failed verification:\n" +
                             graph::format_violations(violations));
        }
    };
    if (config_.verify_graph_plans) check(out.planned, "planned");

    out.executed = dispatcher_->run_schedule(graph, out.planned, now);
    if (config_.verify_graph_plans) {
        check(out.executed, "executed");
        out.verified = true;
    }

    graph_metrics_.runs.inc();
    graph_metrics_.steps.inc(out.executed.steps.size());
    graph_metrics_.fused_ops.inc(out.executed.fused_ops());
    graph_metrics_.spill_seconds.add(out.executed.spill_seconds());
    return out;
}

std::future<Response> Server::submit(InferenceRequest request) {
    MW_CHECK(!request.model_name.empty(), "request needs a model name");
    MW_CHECK(request.payload.shape().rank() == 2 && request.payload.numel() > 0,
             "payload must be a non-empty rank-2 (samples, sample_elems) tensor");
    MW_CHECK(request.slo_s >= 0.0, "slo_s must be non-negative");

    if (hot_active_) {
        // Compat front over the hot path: same admission semantics, but the
        // request rides a pooled node with an attached promise (the promise
        // allocates — the zero-allocation contract is the ticket API's).
        const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);  // relaxed: ids need uniqueness only
        std::promise<Response> promise;
        std::future<Response> future = promise.get_future();
        const double now = clock_->now();
        MW_TRACE_INSTANT(obs::Phase::kSubmit, id, now, request.model_name.c_str());
        stats_.on_submitted(request.policy);

        if (stopped_.load(std::memory_order_acquire)) {
            stats_.on_shutdown(request.policy);
            MW_TRACE_INSTANT(obs::Phase::kComplete, id, now, "shutdown");
            promise.set_value(make_status_response(RequestStatus::kShutdown));
            return future;
        }
        HotRequest* node = request_pool_->acquire();
        if (node == nullptr) {
            stats_.on_rejected_full(request.policy);
            MW_TRACE_INSTANT(obs::Phase::kComplete, id, now, "rejected-full");
            promise.set_value(make_status_response(RequestStatus::kRejectedFull));
            return future;
        }
        node->id = id;
        node->model_name.assign(request.model_name);
        node->samples = request.payload.shape()[0];
        node->policy = request.policy;
        node->slo_s = request.slo_s > 0.0 ? request.slo_s
                                          : config_.admission.default_slo_s;
        node->arrival_s = now;
        node->set_payload(request.payload.span());
        node->promise.emplace(std::move(promise));  // moved promise keeps the future's shared state

        const std::size_t shard = submit_shard_.fetch_add(1, std::memory_order_relaxed) %  // relaxed: scatter cursor only
                                  hot_queue_->shard_count();
        if (!hot_queue_->try_push(shard, node)) {
            stats_.on_rejected_full(request.policy);
            MW_TRACE_INSTANT(obs::Phase::kComplete, id, now, "rejected-full");
            node->promise->set_value(make_status_response(RequestStatus::kRejectedFull));
            request_pool_->release(node);
            return future;
        }
        stats_.on_admitted(request.policy);
        MW_TRACE_INSTANT(obs::Phase::kAdmit, id, now, "admitted");
        return future;
    }

    Request r;
    r.id = next_id_.fetch_add(1, std::memory_order_relaxed);  // relaxed: ids need uniqueness only
    r.model_name = std::move(request.model_name);
    r.samples = request.payload.shape()[0];
    r.policy = request.policy;
    r.payload = std::move(request.payload);
    r.slo_s = request.slo_s;
    std::future<Response> future = r.promise.get_future();

    // A constructed-but-not-started server still admits (tests stage the
    // queue this way); only a stopped server refuses outright.
    if (stopped_.load(std::memory_order_acquire)) {
        stats_.on_submitted(r.policy);
        stats_.on_shutdown(r.policy);
        MW_TRACE_INSTANT(obs::Phase::kSubmit, r.id, clock_->now(), r.model_name.c_str());
        MW_TRACE_INSTANT(obs::Phase::kComplete, r.id, clock_->now(), "shutdown");
        r.complete(make_status_response(RequestStatus::kShutdown));
        return future;
    }
    const double now = clock_->now();
    MW_TRACE_INSTANT(obs::Phase::kSubmit, r.id, now, r.model_name.c_str());
    admission_.admit(std::move(r), now);
    return future;
}

ServerSnapshot Server::stats() const {
    ServerSnapshot snap = stats_.snapshot();
    for (std::size_t lane = 0; lane < kPolicyLanes; ++lane) {
        const auto policy = static_cast<sched::Policy>(lane);
        snap.policy[lane].queue_depth =
            hot_active_ ? hot_queue_->lane_size(policy) : queue_.lane_size(policy);
        snap.queue_depth_total += snap.policy[lane].queue_depth;
    }
    return snap;
}

void Server::worker_loop() {
    while (true) {
        std::optional<PendingBatch> batch = batcher_.next(config_.worker_poll_s);
        if (batch) {
            inflight_.fetch_add(1, std::memory_order_acq_rel);
            execute_batch(std::move(*batch));
            inflight_.fetch_sub(1, std::memory_order_acq_rel);
            continue;
        }
        if (queue_.closed()) return;  // closed and fully drained
    }
}

void Server::execute_batch(PendingBatch batch) {
    const double dispatch_now = clock_->now();

    // SLO-aware shedding at dispatch: under deadline-shed backpressure, a
    // request whose budget has evaporated while queued is dropped here too —
    // executing it would only delay requests that can still make it.
    std::vector<Request> live;
    live.reserve(batch.requests.size());
    std::size_t total_samples = 0;
    for (Request& r : batch.requests) {
        if (admission_.config().policy == BackpressurePolicy::kDeadlineShed &&
            admission_.deadline_unmeetable(r, dispatch_now)) {
            stats_.on_shed(r.policy);
            MW_TRACE_INSTANT(obs::Phase::kComplete, r.id, dispatch_now, "shed-deadline");
            r.complete(make_status_response(RequestStatus::kShedDeadline));
        } else {
            total_samples += r.samples;
            live.push_back(std::move(r));
        }
    }
    if (live.empty()) return;
    batch.requests = std::move(live);
    batch.total_samples = total_samples;
#if defined(MW_OBS_ENABLED)
    // Queue-wait span per request: admission -> the moment a worker picked
    // the batch up for dispatch.
    for (const Request& r : batch.requests) {
        MW_TRACE_SPAN(obs::Phase::kQueue, r.id, r.arrival_s, dispatch_now,
                      r.model_name.c_str());
    }
#endif

    const sched::ScheduleRequest schedule_request{batch.model_name(),
                                                 batch.total_samples, batch.policy()};
    DispatchResult dispatched;
    try {
        const Tensor input = batch.requests.size() == 1
                                 ? std::move(batch.requests.front().payload)
                                 : coalesce_payloads(batch);
        device::SubmitOptions submit_options;
        submit_options.trace_id = batch.requests.front().id;
        if (health_ != nullptr) {
            dispatched =
                dispatch_resilient(schedule_request, input, dispatch_now, submit_options);
        } else {
            sched::ScheduleDecision decision;
            {
                const MutexLock lock(scheduler_mutex_);
                decision = scheduler_->decide(schedule_request, dispatch_now);
            }
            dispatched.result = dispatcher_->run_on(
                decision.device_name, batch.model_name(), input, dispatch_now,
                submit_options);
            dispatched.served_by = std::move(decision.device_name);
        }
    } catch (const std::exception& e) {
        for (Request& r : batch.requests) {
            stats_.on_failed(r.policy);
            MW_TRACE_INSTANT(obs::Phase::kComplete, r.id, dispatch_now, "failed");
            r.complete(make_status_response(RequestStatus::kFailed, e.what()));
        }
        return;
    }

    device::InferenceResult& result = dispatched.result;
    const double execute_s = result.measurement.latency_s();
    admission_.observe_execute(batch.model_name(), execute_s);
    stats_.on_batch_executed(batch.policy(), batch.requests.size());

    const std::size_t coalesced = batch.requests.size();
    const std::size_t out_elems_per_sample =
        result.outputs.numel() / batch.total_samples;
    std::size_t row = 0;
    for (Request& r : batch.requests) {
        const double share =
            static_cast<double>(r.samples) / static_cast<double>(batch.total_samples);
        Response response;
        response.status = RequestStatus::kCompleted;
        response.device_name = dispatched.served_by;
        response.outputs = coalesced == 1
                               ? std::move(result.outputs)
                               : slice_rows(result.outputs, row, r.samples,
                                            out_elems_per_sample);
        response.measurement = result.measurement;
        response.coalesced = coalesced;
        response.queue_s = dispatch_now - r.arrival_s;
        response.execute_s = execute_s;
        response.attempts = dispatched.attempts;
        response.hedged = dispatched.hedged;
        stats_.on_completed(r.policy, response.queue_s, execute_s, r.samples,
                            result.measurement.bytes_in * share,
                            result.measurement.energy_j * share, coalesced);
        MW_TRACE_INSTANT(obs::Phase::kComplete, r.id, result.measurement.end_time,
                         "completed");
        row += r.samples;
        r.complete(std::move(response));
    }
}

// ---------------------------------------------------------------------------
// Lock-free hot path (DESIGN.md §15). Requests ride pooled HotRequest nodes
// through the sharded work-stealing queue; workers gather batches with the
// same rules as the legacy BatchAggregator, decide devices against the
// epoch-snapshotted scheduler state, and publish responses either through
// the node (ticket API, zero-allocation) or the compat promise.
// ---------------------------------------------------------------------------

Server::SubmitOutcome Server::submit_ticket(std::string_view model_name,
                                            std::span<const float> payload,
                                            std::size_t samples,
                                            sched::Policy policy, double slo_s) {
    MW_CHECK(hot_active_,
             "submit_ticket requires the lock-free hot path (see HotPathConfig)");
    MW_CHECK(!model_name.empty(), "request needs a model name");
    MW_CHECK(samples > 0 && !payload.empty() && payload.size() % samples == 0,
             "payload must be non-empty rank-2 (samples, sample_elems) data");
    MW_CHECK(slo_s >= 0.0, "slo_s must be non-negative");

    SubmitOutcome outcome;
    const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);  // relaxed: ids need uniqueness only
    const double now = clock_->now();
    stats_.on_submitted(policy);
    MW_TRACE_INSTANT(obs::Phase::kSubmit, id, now, "ticket");

    if (stopped_.load(std::memory_order_acquire)) {
        stats_.on_shutdown(policy);
        MW_TRACE_INSTANT(obs::Phase::kComplete, id, now, "shutdown");
        outcome.status = RequestStatus::kShutdown;
        return outcome;
    }
    HotRequest* node = request_pool_->acquire();
    if (node == nullptr) {
        stats_.on_rejected_full(policy);
        MW_TRACE_INSTANT(obs::Phase::kComplete, id, now, "rejected-full");
        outcome.status = RequestStatus::kRejectedFull;
        return outcome;
    }
    node->id = id;
    node->model_name.assign(model_name);
    node->samples = samples;
    node->policy = policy;
    node->slo_s = slo_s > 0.0 ? slo_s : config_.admission.default_slo_s;
    node->arrival_s = now;
    node->set_payload(payload);
    node->promise.reset();  // ticket path: the node itself carries the response

    const Ticket ticket{node->index,
                        node->gen.load(std::memory_order_relaxed),  // relaxed: node is exclusively ours
                        id};
    const std::size_t shard = submit_shard_.fetch_add(1, std::memory_order_relaxed) %  // relaxed: scatter cursor only
                              hot_queue_->shard_count();
    if (!hot_queue_->try_push(shard, node)) {
        stats_.on_rejected_full(policy);
        MW_TRACE_INSTANT(obs::Phase::kComplete, id, now, "rejected-full");
        request_pool_->release(node);
        outcome.status = RequestStatus::kRejectedFull;
        return outcome;
    }
    stats_.on_admitted(policy);
    MW_TRACE_INSTANT(obs::Phase::kAdmit, id, now, "admitted");
    outcome.admitted = true;
    outcome.ticket = ticket;
    return outcome;
}

bool Server::try_result(const Ticket& ticket, TicketResult& result) {
    MW_CHECK(hot_active_,
             "try_result requires the lock-free hot path (see HotPathConfig)");
    HotRequest* node = request_pool_->resolve(ticket);
    if (node == nullptr || node->id != ticket.id) {
        throw StateError("try_result: stale or foreign ticket");
    }
    if (node->state.load(std::memory_order_acquire) != HotState::kReady) {
        return false;
    }
    result.status = node->status;
    result.device_name = node->device_name;
    result.outputs = node->output_elems > 0
                         ? std::span<const float>(node->output.get(), node->output_elems)
                         : std::span<const float>();
    result.measurement = &node->measurement;
    result.error = node->error;
    result.queue_s = node->queue_s;
    result.execute_s = node->execute_s;
    result.coalesced = node->coalesced;
    result.attempts = node->attempts;
    result.hedged = node->hedged;
    return true;
}

void Server::release(const Ticket& ticket) {
    MW_CHECK(hot_active_,
             "release requires the lock-free hot path (see HotPathConfig)");
    HotRequest* node = request_pool_->resolve(ticket);
    if (node == nullptr || node->id != ticket.id) {
        throw StateError("release: stale or foreign ticket");
    }
    request_pool_->release(node);
}

void Server::hot_complete_terminal(HotRequest* node, RequestStatus status,
                                   const char* error) {
    if (node->promise.has_value()) {
        node->promise->set_value(
            make_status_response(status, error != nullptr ? error : ""));
        request_pool_->release(node);
        return;
    }
    node->status = status;
    node->error.assign(error != nullptr ? error : "");
    node->device_name = nullptr;
    node->output_elems = 0;
    node->state.store(HotState::kReady, std::memory_order_release);
}

HotRequest* Server::hot_next_leader(HotWorker& w) {
    // Stashed (popped-but-unbatchable) requests go first: they are oldest
    // and already left the queue.
    if (!w.stash.empty()) {
        HotRequest* leader = w.stash.front();
        w.stash.erase(w.stash.begin());
        stashed_total_.fetch_sub(1, std::memory_order_release);
        return leader;
    }
    // Own shard, round-robin over policy lanes (the legacy queue's fairness
    // contract), then steal from the busiest sibling with the same rotation.
    for (std::size_t probe = 0; probe < kPolicyLanes; ++probe) {
        const std::size_t lane = w.lane_cursor;
        w.lane_cursor = (w.lane_cursor + 1) % kPolicyLanes;
        if (HotRequest* node = hot_queue_->pop_lane(w.index, lane)) return node;
    }
    return hot_queue_->steal(w.index, w.lane_cursor);
}

void Server::hot_gather(HotWorker& w, HotRequest* leader) {
#if defined(MW_OBS_ENABLED)
    const double popped_at = clock_->now();
#endif
    w.batch.clear();
    w.batch.push_back(leader);
    w.batch_samples = leader->samples;
    const BatchConfig& bc = config_.batching;
    if (!bc.enabled || bc.max_requests <= 1) {
        MW_TRACE_INSTANT(obs::Phase::kBatch, leader->id, popped_at, "batching-off");
        return;
    }

    // Same gather rules as BatchAggregator::next(): wait up to max_wait_s on
    // the injected clock for same-model/same-policy mates, sleep in short
    // real-time slices, and dispatch immediately when non-matching work is
    // pending (holding a worker hostage to the timer throttles the pipeline).
    const double deadline = clock_->now() + bc.max_wait_s;
    const std::size_t lane = lane_of(leader->policy);
    for (;;) {
        bool gained = false;
        // Stash first: mates a previous gather popped past.
        for (std::size_t i = 0; i < w.stash.size();) {
            HotRequest* cand = w.stash[i];
            if (w.batch.size() < bc.max_requests &&
                w.batch_samples + cand->samples <= bc.max_samples &&
                cand->policy == leader->policy &&
                cand->model_name == leader->model_name) {
                w.batch.push_back(cand);
                w.batch_samples += cand->samples;
                w.stash.erase(w.stash.begin() + i);
                stashed_total_.fetch_sub(1, std::memory_order_release);
                gained = true;
            } else {
                ++i;
            }
        }
        // Then the own shard's lane; a non-matching pop is stashed (it
        // becomes the next leader) and counts as pending backlog below.
        while (w.batch.size() < bc.max_requests &&
               w.batch_samples < bc.max_samples) {
            HotRequest* cand = hot_queue_->pop_lane(w.index, lane);
            if (cand == nullptr) break;
            if (cand->policy == leader->policy &&
                cand->model_name == leader->model_name &&
                w.batch_samples + cand->samples <= bc.max_samples) {
                w.batch.push_back(cand);
                w.batch_samples += cand->samples;
                gained = true;
            } else {
                w.stash.push_back(cand);
                stashed_total_.fetch_add(1, std::memory_order_release);
                break;
            }
        }
        if (w.batch.size() >= bc.max_requests || w.batch_samples >= bc.max_samples) {
            break;
        }
        if (gained) continue;  // maybe more already queued

        const double remaining = deadline - clock_->now();
        if (remaining <= 0.0 || hot_queue_->closed()) break;
        // Dispatch-if-backlogged: anything stashed or queued elsewhere means
        // the server would not go idle by sealing this batch now.
        if (!w.stash.empty() || !hot_queue_->empty()) break;
        sleep_for_seconds(std::min(remaining, kHotIdleSliceS));
    }
    MW_TRACE_SPAN(obs::Phase::kBatch, leader->id, popped_at, clock_->now(),
                  leader->model_name.c_str());
}

void Server::hot_execute(HotWorker& w) {
    const double dispatch_now = clock_->now();
    HotRequest* leader = w.batch.front();
    const std::size_t coalesced = w.batch.size();
    HotWorker::LaneShard& ls = w.lanes[lane_of(leader->policy)];
#if defined(MW_OBS_ENABLED)
    for (const HotRequest* r : w.batch) {
        MW_TRACE_SPAN(obs::Phase::kQueue, r->id, r->arrival_s, dispatch_now,
                      r->model_name.c_str());
    }
#endif

    // Coalesce payloads into the worker's reused input tensor.
    const std::size_t elems = leader->payload_elems / leader->samples;
    bool payload_ok = true;
    for (const HotRequest* r : w.batch) {
        payload_ok = payload_ok && r->payload_elems == r->samples * elems;
    }
    if (!payload_ok) {
        ls.failed.inc(w.batch.size());
        hot_flush_if_due(w);
        for (HotRequest* r : w.batch) {
            MW_TRACE_INSTANT(obs::Phase::kComplete, r->id, dispatch_now, "failed");
            hot_complete_terminal(r, RequestStatus::kFailed,
                                  "payload width mismatch inside batch");
        }
        return;
    }
    w.input.resize(Shape{w.batch_samples, elems});
    std::size_t row = 0;
    for (const HotRequest* r : w.batch) {
        std::memcpy(w.input.data() + row * elems, r->payload.get(),
                    r->payload_elems * sizeof(float));
        row += r->samples;
    }

    device::InferenceResult result;
    const std::string* served_by = nullptr;
    std::size_t attempts = 1;
    bool hedged = false;
    try {
        device::SubmitOptions submit_options;
        submit_options.trace_id = leader->id;
        if (health_ != nullptr) {
            // Resilience rides the mutex path (retry ladders and breakers
            // allocate anyway); the zero-allocation contract covers the
            // plain configuration.
            const sched::ScheduleRequest schedule_request{
                leader->model_name, w.batch_samples, leader->policy};
            DispatchResult dispatched = dispatch_resilient(
                schedule_request, w.input, dispatch_now, submit_options);
            result = std::move(dispatched.result);
            served_by = &dispatcher_->registry().at(dispatched.served_by).name();
            attempts = dispatched.attempts;
            hedged = dispatched.hedged;
        } else {
            const auto guard = snapshot_cell_->read();
            if (guard->find_model(leader->model_name) != nullptr) {
                // Lock-free decide against the pinned snapshot. scratch is
                // grow-only: resize re-allocates only when a retrain made
                // the predictor's scratch demand larger.
                w.scratch.resize(guard->scratch_size());
                const sched::SchedulerSnapshot::Decision decision = guard->decide(
                    leader->model_name, leader->policy, w.batch_samples,
                    std::span<double>(w.scratch));
                result = dispatcher_->run_on(decision.device->name(),
                                             leader->model_name, w.input,
                                             dispatch_now, submit_options);
                served_by = &decision.device->name();
            } else {
                // Model registered after the last publish: fall back to the
                // mutexed decide once and republish so the next batch is
                // lock-free again.
                sched::ScheduleDecision decision;
                {
                    const MutexLock lock(scheduler_mutex_);
                    decision = scheduler_->decide(
                        {leader->model_name, w.batch_samples, leader->policy},
                        dispatch_now);
                }
                result = dispatcher_->run_on(decision.device_name,
                                             leader->model_name, w.input,
                                             dispatch_now, submit_options);
                served_by = &dispatcher_->registry().at(decision.device_name).name();
                w.batches_since_refresh = config_.hot_path.snapshot_refresh_batches;
            }
        }
    } catch (const std::exception& e) {
        ls.failed.inc(w.batch.size());
        hot_flush_if_due(w);
        for (HotRequest* r : w.batch) {
            MW_TRACE_INSTANT(obs::Phase::kComplete, r->id, dispatch_now, "failed");
            hot_complete_terminal(r, RequestStatus::kFailed, e.what());
        }
        return;
    }

    const double execute_s = result.measurement.latency_s();
    // Account the whole batch into the worker's shards, then flush-if-due
    // BEFORE publishing any response: with the default flush interval of 1
    // a client that has seen its future resolve also sees the batch in
    // stats(), exactly like the legacy path.
    ls.batches_executed.inc();
    ls.coalesced_requests.inc(coalesced);
    const auto total = static_cast<double>(w.batch_samples);
    for (const HotRequest* r : w.batch) {
        const double share = static_cast<double>(r->samples) / total;
        ls.completed.inc();
        ls.samples.add(static_cast<double>(r->samples));
        ls.bytes_in.add(result.measurement.bytes_in * share);
        ls.energy_j.add(result.measurement.energy_j * share);
        ls.queue_samples.push_back(dispatch_now - r->arrival_s);
        ls.execute_samples.push_back(execute_s);
    }
    hot_flush_if_due(w);

    const std::size_t out_elems_per_sample = result.outputs.numel() / w.batch_samples;
    row = 0;
    for (HotRequest* r : w.batch) {
        const double queue_s = dispatch_now - r->arrival_s;
        MW_TRACE_INSTANT(obs::Phase::kComplete, r->id, result.measurement.end_time,
                         "completed");
        if (r->promise.has_value()) {
            Response response;
            response.status = RequestStatus::kCompleted;
            response.device_name = *served_by;
            response.outputs = slice_rows(result.outputs, row, r->samples,
                                          out_elems_per_sample);
            response.measurement = result.measurement;
            response.coalesced = coalesced;
            response.queue_s = queue_s;
            response.execute_s = execute_s;
            response.attempts = attempts;
            response.hedged = hedged;
            row += r->samples;
            r->promise->set_value(std::move(response));
            request_pool_->release(r);
        } else {
            const std::size_t out_elems = r->samples * out_elems_per_sample;
            float* out = r->output_buffer(out_elems);
            std::memcpy(out, result.outputs.data() + row * out_elems_per_sample,
                        out_elems * sizeof(float));
            row += r->samples;
            r->status = RequestStatus::kCompleted;
            r->device_name = served_by;
            r->measurement = result.measurement;  // string members reuse capacity
            r->error.clear();
            r->queue_s = queue_s;
            r->execute_s = execute_s;
            r->coalesced = coalesced;
            r->attempts = attempts;
            r->hedged = hedged;
            r->state.store(HotState::kReady, std::memory_order_release);
        }
    }
}

void Server::hot_flush_if_due(HotWorker& w) {
    ++w.batches_since_flush;
    if (w.batches_since_flush >= config_.hot_path.stats_flush_batches) {
        w.flush_stats();
    }
}

void Server::hot_refresh_snapshot() {
    // One refresher at a time; losers skip (their next period retries).
    bool expected = false;
    if (!snapshot_claim_.compare_exchange_strong(expected, true,
                                                 std::memory_order_acq_rel,
                                                 std::memory_order_acquire)) {
        return;
    }
    {
        const MutexLock lock(scheduler_mutex_);
        snapshot_cell_->publish(scheduler_->build_snapshot(clock_->now()));
    }
    snapshot_claim_.store(false, std::memory_order_release);
}

void Server::hot_worker_loop(std::size_t worker_index) {
    HotWorker w;
    w.index = worker_index;
    w.lane_cursor = worker_index % kPolicyLanes;
    w.stash.reserve(config_.batching.max_requests * 2);
    w.batch.reserve(config_.batching.max_requests);
    for (std::size_t lane = 0; lane < kPolicyLanes; ++lane) {
        const ServerStats::WorkerSeries series =
            stats_.worker_series(static_cast<sched::Policy>(lane));
        HotWorker::LaneShard& ls = w.lanes[lane];
        ls.completed = obs::CounterShard(series.completed);
        ls.failed = obs::CounterShard(series.failed);
        ls.shed = obs::CounterShard(series.shed);
        ls.shutdown = obs::CounterShard(series.shutdown);
        ls.batches_executed = obs::CounterShard(series.batches_executed);
        ls.coalesced_requests = obs::CounterShard(series.coalesced_requests);
        ls.samples = obs::GaugeShard(series.samples);
        ls.bytes_in = obs::GaugeShard(series.bytes_in);
        ls.energy_j = obs::GaugeShard(series.energy_j);
        ls.queue_hist = series.queue_hist;
        ls.execute_hist = series.execute_hist;
        const std::size_t buffered =
            config_.hot_path.stats_flush_batches * config_.batching.max_requests;
        ls.queue_samples.reserve(buffered);
        ls.execute_samples.reserve(buffered);
    }
    {
        const auto guard = snapshot_cell_->read();
        w.scratch.resize(guard->scratch_size());
    }

    for (;;) {
        HotRequest* leader = hot_next_leader(w);
        if (leader == nullptr) {
            if (hot_queue_->closed() && w.stash.empty()) break;
            sleep_for_seconds(kHotIdleSliceS);
            continue;
        }
        inflight_.fetch_add(1, std::memory_order_acq_rel);
        hot_gather(w, leader);
        hot_execute(w);
        w.batch.clear();
        w.batch_samples = 0;
        inflight_.fetch_sub(1, std::memory_order_acq_rel);
        ++w.batches_since_refresh;
        if (w.batches_since_refresh >= config_.hot_path.snapshot_refresh_batches) {
            w.batches_since_refresh = 0;
            hot_refresh_snapshot();
        }
    }
    w.flush_stats();  // totals are exact once every worker has exited
}

Server::DispatchResult Server::dispatch_resilient(
    const sched::ScheduleRequest& schedule_request, const Tensor& input,
    double dispatch_now, const device::SubmitOptions& submit_options) {
    // Partition the fleet through the circuit breakers. A fully-excluded
    // fleet falls back to trying everything: the retry ladder is then the
    // only line of defence, but shedding every batch while all breakers
    // cool down would turn a transient storm into a total outage.
    std::vector<std::string> excluded;
    std::vector<std::string> allowed =
        health_->partition_allowed(dispatcher_->registry().names(), &excluded);
    if (allowed.empty()) {
        allowed = dispatcher_->registry().names();
        excluded.clear();
    }

    sched::ScheduleDecision decision;
    {
        const MutexLock lock(scheduler_mutex_);
        decision = scheduler_->decide(schedule_request, dispatch_now, excluded);
    }

    // Candidate ladder: the scheduler's pick first, then the other healthy
    // devices in ascending observed-latency order (best fallback first).
    // Snapshot each EWMA once before sorting: other workers' on_success moves
    // the tracker's values concurrently, and a comparator that re-reads them
    // mid-sort is not a strict weak ordering — std::sort's unguarded
    // insertion pass then scans past the front of the array.
    std::vector<std::string> candidates;
    candidates.reserve(allowed.size());
    candidates.push_back(decision.device_name);
    std::vector<std::pair<double, std::string>> ranked;
    ranked.reserve(allowed.size());
    for (std::string& name : allowed) {
        ranked.emplace_back(health_->latency_ewma_s(name), std::move(name));
    }
    // Stable on the snapshot: ties (e.g. every EWMA 0 at cold start) keep
    // registry order, so "next best" stays the first healthy fallback.
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& [ewma, name] : ranked) {
        if (name != decision.device_name) candidates.push_back(std::move(name));
    }

    sched::ResilientOutcome outcome = dispatcher_->run_resilient(
        candidates, schedule_request.model_name, input, dispatch_now,
        config_.resilience.retry, health_.get(), submit_options);
    DispatchResult dispatched{std::move(outcome.result), std::move(outcome.device_name),
                              outcome.attempts, false};

    // Straggler hedge: the primary came back, but later than the execute
    // timeout. Issue one duplicate on the next-best device, dated at the
    // moment the timeout fired on the simulated timeline, and keep whichever
    // finishes earlier. (Simulated-time semantics: the primary's result is
    // already known when we hedge; the race is replayed on the timeline.)
    const double hedge_timeout_s = config_.resilience.hedge_timeout_s;
    if (hedge_timeout_s > 0.0 &&
        dispatched.result.measurement.latency_s() > hedge_timeout_s) {
        const auto alt = std::find_if(
            candidates.begin(), candidates.end(),
            [&dispatched](const std::string& name) { return name != dispatched.served_by; });
        if (alt != candidates.end()) {
            const double hedge_at = dispatch_now + hedge_timeout_s;
            health_->note_hedge(*alt);
            dispatched.hedged = true;
            MW_TRACE_INSTANT(obs::Phase::kHedge, submit_options.trace_id, hedge_at,
                             alt->c_str());
            try {
                device::InferenceResult hedge_result =
                    dispatcher_->run_on(*alt, schedule_request.model_name, input,
                                        hedge_at, submit_options);
                health_->on_success(*alt, hedge_result.measurement.latency_s());
                if (hedge_result.measurement.end_time <
                    dispatched.result.measurement.end_time) {
                    dispatched.result = std::move(hedge_result);
                    dispatched.served_by = *alt;
                }
            } catch (const fault::FaultError&) {
                // The hedge itself faulted: keep the straggling primary.
                health_->on_failure(*alt);
            }
        }
    }
    return dispatched;
}

}  // namespace mw::serve
