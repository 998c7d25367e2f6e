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

/// Copy one request's rows back out of the batch output tensor.
Tensor slice_rows(const Tensor& outputs, std::size_t row_offset, std::size_t rows,
                  std::size_t elems_per_sample) {
    Tensor out(Shape{rows, elems_per_sample});
    std::memcpy(out.data(), outputs.data() + row_offset * elems_per_sample,
                rows * elems_per_sample * sizeof(float));
    return out;
}

/// Real-time idle/steal-retry sleep slice. Deliberately a plain timed sleep,
/// not a wake-per-push wait: waking a worker on every push preempts the
/// producing thread after a single request (ruinous on few-core hosts — each
/// batch collapses to one or two requests), whereas a short sleep lets
/// arrivals accumulate and be grabbed in one scan. Also bounds how stale an
/// injected ManualClock can get and how long shutdown can lag behind close().
constexpr double kIdleSliceS = 0.0005;

/// Per-worker executed batches between scheduler-snapshot republishes
/// (bounds how stale the GPU-warm feature and the model table get).
constexpr std::size_t kSnapshotRefreshBatches = 64;

/// The constructor's argument checks, run before any member is built from
/// the config.
ServerConfig checked(ServerConfig config) {
    MW_CHECK(config.workers > 0, "server needs at least one worker");
    MW_CHECK(config.batching.max_requests > 0, "max_requests must be positive");
    MW_CHECK(config.batching.max_samples > 0, "max_samples must be positive");
    MW_CHECK(config.batching.max_wait_s >= 0.0, "max_wait_s must be non-negative");
    return config;
}

/// Arena sizing: everything queueable + every worker's in-flight batch and
/// stash + slack for tickets held by clients after completion.
std::size_t arena_capacity(const ServerConfig& config) {
    if (config.hot_path.pool_capacity > 0) return config.hot_path.pool_capacity;
    return config.queue_capacity + config.workers * config.batching.max_requests * 5 + 64;
}

}  // namespace

/// Per-worker state. Owned by exactly one worker thread; the only
/// cross-thread surfaces are the queue/pool/snapshot-cell it drains and the
/// stats-shard flushes. Every container is reserved once — the steady state
/// re-uses this memory without allocating.
struct Server::Worker {
    std::size_t index = 0;
    std::size_t lane_cursor = 0;  ///< round-robin over policy lanes

    std::vector<HotRequest*> stash;  ///< popped non-matching requests (still "queued")
    std::vector<HotRequest*> batch;  ///< the batch being gathered/executed
    std::vector<HotRequest*> shed;   ///< batch members dropped at dispatch (deadline-shed)
    std::size_t batch_samples = 0;

    std::vector<double> scratch;  ///< snapshot-decide scratch
    Tensor input;                 ///< coalesced payload, storage reused

    /// Stats shards: counters batch into single flush-time RMWs; latency
    /// samples buffer locally and replay into the shared histograms at flush.
    struct LaneShard {
        obs::CounterShard completed, failed, shed;
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
    : config_(checked(config)),
      clock_(&clock),
      scheduler_(&scheduler),
      dispatcher_(&dispatcher),
      graph_metrics_{stats_.mutable_registry().counter("mw_graph_runs_total"),
                     stats_.mutable_registry().counter("mw_graph_steps_total"),
                     stats_.mutable_registry().counter("mw_graph_fused_ops_total"),
                     stats_.mutable_registry().gauge("mw_graph_spill_seconds_total")},
      admission_(config_.admission),
      request_pool_(arena_capacity(config_)),
      queue_(config_.workers, config_.queue_capacity),
      pool_(std::make_unique<ThreadPool>(config_.workers)) {
    if (config_.resilience.enabled) {
        health_ = std::make_unique<fault::DeviceHealthTracker>(
            config_.resilience.health, clock, &stats_.mutable_registry());
    }
    {
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
        workers_.push_back(pool_->submit([this, i] { worker_loop(i); }));
    }
}

void Server::stop() {
    if (stopped_.exchange(true, std::memory_order_seq_cst)) return;
    const bool was_running = running_.exchange(false, std::memory_order_acq_rel);
    if (was_running && config_.drain_on_stop) {
        // Workers are still draining; wait for queue + in-flight to empty.
        while (queue_depth() > 0 || inflight_.load(std::memory_order_acquire) > 0) {
            sleep_for_seconds(0.0005);
        }
    }
    queue_.close();
    for (auto& worker : workers_) worker.get();
    workers_.clear();
    // An admission that passed the stopped_ check may still be pushing (it
    // read the queue open just before close()); wait so the drain sees it.
    while (admitting_.load(std::memory_order_seq_cst) > 0) sleep_for_seconds(0.0001);
    // Anything still queued (stop without drain, or never started).
    for (HotRequest* node : queue_.drain()) {
        stats_.on_shutdown(node->policy);
        MW_TRACE_INSTANT(obs::Phase::kComplete, node->id, clock_->now(), "shutdown");
        complete_terminal(node, RequestStatus::kShutdown);
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
    check(out.planned, "planned");
    out.executed = dispatcher_->run_schedule(graph, out.planned, now);
    check(out.executed, "executed");
    out.verified = true;

    graph_metrics_.runs.inc();
    graph_metrics_.steps.inc(out.executed.steps.size());
    graph_metrics_.fused_ops.inc(out.executed.fused_ops());
    graph_metrics_.spill_seconds.add(out.executed.spill_seconds());
    return out;
}

std::future<Response> Server::submit(InferenceRequest request) {
    MW_CHECK(request.payload.shape().rank() == 2 && request.payload.numel() > 0,
             "payload must be a non-empty rank-2 (samples, sample_elems) tensor");
    std::promise<Response> promise;
    std::future<Response> future = promise.get_future();
    (void)admit(request.model_name, request.payload.span(), request.payload.shape()[0],
                request.policy, request.slo_s, &promise);
    return future;
}

Server::SubmitOutcome Server::submit_ticket(std::string_view model_name,
                                            std::span<const float> payload,
                                            std::size_t samples,
                                            sched::Policy policy, double slo_s) {
    return admit(model_name, payload, samples, policy, slo_s, nullptr);
}

Server::SubmitOutcome Server::admit(std::string_view model_name,
                                    std::span<const float> payload, std::size_t samples,
                                    sched::Policy policy, double slo_s,
                                    std::promise<Response>* promise) {
    MW_CHECK(!model_name.empty(), "request needs a model name");
    MW_CHECK(samples > 0 && !payload.empty() && payload.size() % samples == 0,
             "payload must be non-empty rank-2 (samples, sample_elems) data");
    MW_CHECK(slo_s >= 0.0, "slo_s must be non-negative");

    // stop() waits out every admission in flight before its final drain, so
    // a node pushed after the queue closed cannot be stranded. seq_cst pairs
    // with stop()'s flag store: either this admission sees stopped_, or
    // stop() sees it in flight.
    admitting_.fetch_add(1, std::memory_order_seq_cst);
    struct Leave {
        Atomic<std::size_t>& admitting;
        ~Leave() { admitting.fetch_sub(1, std::memory_order_release); }
    } leave{admitting_};

    SubmitOutcome outcome;
    const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);  // relaxed: ids need uniqueness only
    const double now = clock_->now();
    stats_.on_submitted(policy);
    MW_TRACE_INSTANT(obs::Phase::kSubmit, id, now, promise != nullptr ? "future" : "ticket");
    if (slo_s <= 0.0) slo_s = config_.admission.default_slo_s;

    const auto refuse = [&](RequestStatus status) {
        if (status == RequestStatus::kShutdown) {
            stats_.on_shutdown(policy);
        } else if (status == RequestStatus::kShedDeadline) {
            stats_.on_shed(policy);
        } else {
            stats_.on_rejected_full(policy);
        }
        MW_TRACE_INSTANT(obs::Phase::kAdmit, id, now, status_label(status));
        MW_TRACE_INSTANT(obs::Phase::kComplete, id, now, status_label(status));
        if (promise != nullptr) promise->set_value(make_status_response(status));
        outcome.status = status;
        return outcome;
    };

    // A constructed-but-not-started server still admits (tests stage the
    // queue this way); only a stopped server refuses outright.
    if (stopped_.load(std::memory_order_seq_cst)) return refuse(RequestStatus::kShutdown);
    const BackpressurePolicy backpressure = config_.admission.policy;
    if (backpressure == BackpressurePolicy::kDeadlineShed &&
        admission_.deadline_unmeetable(model_name, slo_s, now, now)) {
        return refuse(RequestStatus::kShedDeadline);  // hopeless on arrival
    }
    HotRequest* node = request_pool_.acquire();
    if (node == nullptr) return refuse(RequestStatus::kRejectedFull);
    node->id = id;
    node->model_name.assign(model_name);
    node->samples = samples;
    node->policy = policy;
    node->slo_s = slo_s;
    node->arrival_s = now;
    node->set_payload(payload);
    if (promise != nullptr) node->promise.emplace(std::move(*promise));
    outcome.ticket = Ticket{node->index,
                            node->gen.load(std::memory_order_relaxed),  // relaxed: node is exclusively ours
                            id};

    const std::size_t shard = submit_shard_.fetch_add(1, std::memory_order_relaxed) %  // relaxed: scatter cursor only
                              queue_.shard_count();
    bool pushed = queue_.try_push(shard, node);
    if (!pushed && backpressure == BackpressurePolicy::kRejectOldest && !queue_.closed()) {
        // Evict only when the capacity counter refused the push: a push that
        // lapped onto a slot whose pop is still in flight had room, and an
        // eviction there would lose a queued request for nothing. One retry
        // either way: another producer may take the freed slot first, and
        // then the newcomer is refused like under reject-newest.
        if (queue_.size() >= queue_.capacity()) evict_one(shard, lane_of(policy));
        pushed = queue_.try_push(shard, node);
    }
    if (!pushed) {
        if (promise != nullptr) *promise = std::move(*node->promise);
        request_pool_.release(node);
        return refuse(RequestStatus::kRejectedFull);
    }
    stats_.on_admitted(policy);
    MW_TRACE_INSTANT(obs::Phase::kAdmit, id, now, "admitted");
    outcome.admitted = true;
    return outcome;
}

void Server::evict_one(std::size_t shard, std::size_t lane) {
    // The victim is the head of the first non-empty lane ring probed — the
    // oldest entry of that ring, not necessarily the oldest in the queue.
    HotRequest* victim = nullptr;
    for (std::size_t probe = 0; probe < kPolicyLanes && victim == nullptr; ++probe) {
        victim = queue_.pop_lane(shard, (lane + probe) % kPolicyLanes);
    }
    if (victim == nullptr) victim = queue_.steal(shard, lane);
    if (victim == nullptr) return;  // workers drained the rings meanwhile
    stats_.on_evicted(victim->policy);
    MW_TRACE_INSTANT(obs::Phase::kComplete, victim->id, clock_->now(), "evicted");
    complete_terminal(victim, RequestStatus::kEvicted);
}

ServerSnapshot Server::stats() const {
    ServerSnapshot snap = stats_.snapshot();
    for (std::size_t lane = 0; lane < kPolicyLanes; ++lane) {
        snap.policy[lane].queue_depth = queue_.lane_size(static_cast<sched::Policy>(lane));
        snap.queue_depth_total += snap.policy[lane].queue_depth;
    }
    return snap;
}

bool Server::try_result(const Ticket& ticket, TicketResult& result) {
    HotRequest* node = request_pool_.resolve(ticket);
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
    HotRequest* node = request_pool_.resolve(ticket);
    if (node == nullptr || node->id != ticket.id) {
        throw StateError("release: stale or foreign ticket");
    }
    request_pool_.release(node);
}

void Server::complete_terminal(HotRequest* node, RequestStatus status, const char* error) {
    if (node->promise.has_value()) {
        node->promise->set_value(
            make_status_response(status, error != nullptr ? error : ""));
        request_pool_.release(node);
        return;
    }
    node->status = status;
    node->error.assign(error != nullptr ? error : "");
    node->device_name = nullptr;
    node->output_elems = 0;
    node->state.store(HotState::kReady, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Worker side (DESIGN.md §15). Workers drain their own shard, steal from
// siblings, gather same-model batches, decide devices against the
// epoch-snapshotted scheduler state, and publish responses through the node
// (ticket API, zero-allocation) or its promise (submit()).
// ---------------------------------------------------------------------------

HotRequest* Server::next_leader(Worker& w) {
    // Stashed (popped-but-unbatchable) requests go first: they are oldest
    // and already left the queue.
    if (!w.stash.empty()) {
        HotRequest* leader = w.stash.front();
        w.stash.erase(w.stash.begin());
        stashed_total_.fetch_sub(1, std::memory_order_release);
        return leader;
    }
    // Own shard, round-robin over policy lanes (no policy class starves
    // another), then steal from the busiest sibling with the same rotation.
    for (std::size_t probe = 0; probe < kPolicyLanes; ++probe) {
        const std::size_t lane = w.lane_cursor;
        w.lane_cursor = (w.lane_cursor + 1) % kPolicyLanes;
        if (HotRequest* node = queue_.pop_lane(w.index, lane)) return node;
    }
    return queue_.steal(w.index, w.lane_cursor);
}

void Server::gather(Worker& w, HotRequest* leader) {
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

    // Wait up to max_wait_s on the injected clock for same-model/same-policy
    // mates, sleeping in short real-time slices, and dispatch immediately
    // when non-matching work is pending: holding a worker hostage to the
    // timer while work is queued throttles the pipeline, and with a full
    // queue the mates it waits for could not even be pushed.
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
        // Then the leader's lane, own shard first, then each sibling shard:
        // producers scatter requests across shards, so mates gathered from
        // one shard alone would shrink batches as workers are added. A
        // non-matching pop is stashed (it becomes the next leader), counts
        // as pending backlog below, and ends this scan.
        bool mismatch = false;
        for (std::size_t k = 0; k < queue_.shard_count() && !mismatch; ++k) {
            const std::size_t shard = (w.index + k) % queue_.shard_count();
            while (w.batch.size() < bc.max_requests &&
                   w.batch_samples < bc.max_samples) {
                HotRequest* cand = queue_.pop_lane(shard, lane);
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
                    mismatch = true;
                    break;
                }
            }
        }
        if (w.batch.size() >= bc.max_requests || w.batch_samples >= bc.max_samples) {
            break;
        }
        if (gained) continue;  // maybe more already queued

        const double remaining = deadline - clock_->now();
        if (remaining <= 0.0 || queue_.closed()) break;
        // Dispatch-if-backlogged: anything stashed or queued elsewhere means
        // the server would not go idle by sealing this batch now.
        if (!w.stash.empty() || !queue_.empty()) break;
        sleep_for_seconds(std::min(remaining, kIdleSliceS));
    }
    MW_TRACE_SPAN(obs::Phase::kBatch, leader->id, popped_at, clock_->now(),
                  leader->model_name.c_str());
}

void Server::shed_unmeetable(Worker& w, double dispatch_now) {
    // Executing a request whose budget evaporated while it queued would only
    // delay requests that can still make it. Members move to w.shed; the
    // worker loop completes them after the batch's stats flush.
    Worker::LaneShard& ls = w.lanes[lane_of(w.batch.front()->policy)];
    std::size_t kept = 0;
    for (HotRequest* r : w.batch) {
        if (admission_.deadline_unmeetable(r->model_name, r->slo_s, r->arrival_s,
                                           dispatch_now)) {
            w.shed.push_back(r);
            w.batch_samples -= r->samples;
            ls.shed.inc();
        } else {
            w.batch[kept++] = r;
        }
    }
    w.batch.resize(kept);
}

void Server::execute(Worker& w, double dispatch_now) {
    HotRequest* leader = w.batch.front();
    const std::size_t coalesced = w.batch.size();
    Worker::LaneShard& ls = w.lanes[lane_of(leader->policy)];
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
        flush_if_due(w);
        for (HotRequest* r : w.batch) {
            MW_TRACE_INSTANT(obs::Phase::kComplete, r->id, dispatch_now, "failed");
            complete_terminal(r, RequestStatus::kFailed,
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
                w.batches_since_refresh = kSnapshotRefreshBatches;
            }
        }
    } catch (const std::exception& e) {
        ls.failed.inc(w.batch.size());
        flush_if_due(w);
        for (HotRequest* r : w.batch) {
            MW_TRACE_INSTANT(obs::Phase::kComplete, r->id, dispatch_now, "failed");
            complete_terminal(r, RequestStatus::kFailed, e.what());
        }
        return;
    }

    const double execute_s = result.measurement.latency_s();
    // Deadline shedding judges against this estimate; no other policy reads it.
    if (config_.admission.policy == BackpressurePolicy::kDeadlineShed) {
        admission_.observe_execute(leader->model_name, execute_s);
    }
    // Account the whole batch into the worker's shards, then flush-if-due
    // BEFORE publishing any response: with the default flush interval of 1
    // a client that has seen its response resolve also sees the batch in
    // stats().
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
    flush_if_due(w);

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
            request_pool_.release(r);
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

void Server::flush_if_due(Worker& w) {
    ++w.batches_since_flush;
    if (w.batches_since_flush >= config_.hot_path.stats_flush_batches) {
        w.flush_stats();
    }
}

void Server::refresh_snapshot() {
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

void Server::worker_loop(std::size_t worker_index) {
    Worker w;
    w.index = worker_index;
    w.lane_cursor = worker_index % kPolicyLanes;
    w.stash.reserve(config_.batching.max_requests * 2);
    w.batch.reserve(config_.batching.max_requests);
    w.shed.reserve(config_.batching.max_requests);
    for (std::size_t lane = 0; lane < kPolicyLanes; ++lane) {
        const ServerStats::WorkerSeries series =
            stats_.worker_series(static_cast<sched::Policy>(lane));
        Worker::LaneShard& ls = w.lanes[lane];
        ls.completed = obs::CounterShard(series.completed);
        ls.failed = obs::CounterShard(series.failed);
        ls.shed = obs::CounterShard(series.shed);
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

    const bool shed_at_dispatch =
        config_.admission.policy == BackpressurePolicy::kDeadlineShed;
    for (;;) {
        HotRequest* leader = next_leader(w);
        if (leader == nullptr) {
            if (queue_.closed() && w.stash.empty()) break;
            sleep_for_seconds(kIdleSliceS);
            continue;
        }
        inflight_.fetch_add(1, std::memory_order_acq_rel);
        gather(w, leader);
        const double dispatch_now = clock_->now();
        if (shed_at_dispatch) shed_unmeetable(w, dispatch_now);
        if (w.batch.empty()) {
            flush_if_due(w);  // every member was shed: publish the shed count
        } else {
            execute(w, dispatch_now);
        }
        for (HotRequest* r : w.shed) {
            MW_TRACE_INSTANT(obs::Phase::kComplete, r->id, dispatch_now, "shed-deadline");
            complete_terminal(r, RequestStatus::kShedDeadline);
        }
        w.shed.clear();
        w.batch.clear();
        w.batch_samples = 0;
        inflight_.fetch_sub(1, std::memory_order_acq_rel);
        ++w.batches_since_refresh;
        if (w.batches_since_refresh >= kSnapshotRefreshBatches) {
            w.batches_since_refresh = 0;
            refresh_snapshot();
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
