// Server: the concurrent serving front-end. Clients submit() payload-carrying
// requests and receive futures, or submit_ticket() and poll pooled tickets.
// Either way the request rides a RequestPool node through one sharded
// lock-free queue; N worker threads (on an owned ThreadPool) gather
// same-model batches, decide a device against an epoch-pinned scheduler
// snapshot, execute via Dispatcher::run_on, and publish the responses.
// Backpressure sheds explicitly when the queue fills, so offered load beyond
// saturation degrades into rejections instead of unbounded latency.
//
// Time is injected (mw::Clock): benches and demos pass a WallClock, tests a
// ManualClock — serve code itself never reads a wall clock (enforced by
// mw-analyze's clock-confinement check). The clock's "now" doubles as the
// simulated timestamp handed to the scheduler and the device layer.
//
// Thread safety: submit(), submit_ticket(), try_result(), release(),
// stats() and queue_depth() may be called from any thread while the server
// runs. The OnlineScheduler is not internally synchronised, so the server
// serialises its own calls into it (snapshot rebuilds, and decide() on the
// resilient and not-yet-snapshotted-model routes) behind a mutex — callers
// must not drive the same scheduler (submit/run/retrain) concurrently from
// outside while the server is running.
#pragma once

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <string_view>
#include <vector>

#include "common/epoch_cell.hpp"
#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "fault/health.hpp"
#include "graph/dag.hpp"
#include "graph/schedule.hpp"
#include "obs/metrics.hpp"
#include "sched/scheduler.hpp"
#include "serve/admission.hpp"
#include "serve/request_pool.hpp"
#include "serve/sharded_queue.hpp"
#include "serve/stats.hpp"

namespace mw::serve {

/// Resilient-dispatch knobs. Off by default: a server without resilience
/// behaves exactly as before mw::fault existed.
struct ResilienceConfig {
    bool enabled = false;
    /// Retry ladder for faulted dispatches (next-best device, capped
    /// exponential backoff on the simulated timeline).
    sched::RetryPolicy retry{};
    /// Per-device circuit breaker fed back into decide() as an exclusion
    /// set; counters land in the server's metrics registry as mw_fault_*.
    fault::HealthConfig health{};
    /// Execute-timeout for the hedged re-dispatch: a batch whose execute
    /// latency exceeds this gets one duplicate dispatch on the next-best
    /// device, and the earlier finisher wins. 0 disables hedging.
    double hedge_timeout_s = 0.0;
};

/// Dynamic batching: a worker pops a leader request, then coalesces
/// same-model/same-policy followers until the batch is full or a max-wait
/// deadline passes on the injected clock. The paper treats batch size as a
/// scheduling *input*; batching makes it a server *output* — large coalesced
/// batches are exactly where the iGPU/dGPU crossovers of Fig. 3 pay off.
struct BatchConfig {
    bool enabled = true;
    std::size_t max_requests = 16;    ///< coalesce at most this many requests
    std::size_t max_samples = 16384;  ///< cap on total samples per batch
    double max_wait_s = 0.002;        ///< extra time a leader waits for mates
};

/// Request-arena and per-worker amortisation knobs (DESIGN.md §15).
struct HotPathConfig {
    /// HotRequest arena size; 0 sizes it from queue capacity + worker-held
    /// batches + slack. Exhaustion sheds (kRejectedFull), never allocates.
    std::size_t pool_capacity = 0;
    /// Per-worker executed batches between stats-shard flushes into the
    /// shared registry. The default (1) flushes once per batch, before its
    /// responses publish, so a client that has seen its response also sees
    /// the batch in stats(), while per-request counter RMWs still collapse
    /// into per-batch ones. Larger values amortise further (the contention
    /// bench uses this), at the cost of deltas staying invisible to
    /// snapshots until the next flush; totals are exact after stop() either
    /// way.
    std::size_t stats_flush_batches = 1;
};

struct ServerConfig {
    std::size_t workers = 2;         ///< draining threads (owned pool size)
    std::size_t queue_capacity = 256;
    AdmissionConfig admission{};
    BatchConfig batching{};
    HotPathConfig hot_path{};
    /// Finish everything queued before stop() returns; false completes
    /// still-queued requests with RequestStatus::kShutdown instead.
    bool drain_on_stop = true;
    /// Start workers in the constructor. Tests set this false to stage a
    /// queue deterministically before any worker runs, then call start().
    bool start_on_construction = true;
    ResilienceConfig resilience{};
};

/// One-shot lifecycle: construct (optionally start()), serve, stop(); a
/// stopped server cannot be restarted.
class Server {
public:
    Server(sched::OnlineScheduler& scheduler, sched::Dispatcher& dispatcher,
           const Clock& clock, ServerConfig config = {});
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Hand a request to the server; the future resolves with the outcome
    /// (kCompleted with outputs, or a rejection/evicted/shed/shutdown
    /// status). Payload must be rank-2 (samples, sample_elems); the model
    /// must be registered with the Dispatcher and deployed. Same admission
    /// as submit_ticket(); the promise allocates, so the zero-allocation
    /// contract is the ticket API's.
    std::future<Response> submit(InferenceRequest request);

    /// What submit_ticket() resolved to at admission time.
    struct SubmitOutcome {
        bool admitted = false;
        RequestStatus status = RequestStatus::kRejectedFull;  ///< when !admitted
        Ticket ticket;  ///< valid when admitted
    };

    /// Zero-allocation submission. The payload is copied into a pooled
    /// arena node; poll try_result() for completion and release() the
    /// ticket when done with the response. Steady state performs no heap
    /// allocation from submit to release.
    [[nodiscard]] SubmitOutcome submit_ticket(std::string_view model_name,
                                              std::span<const float> payload,
                                              std::size_t samples,
                                              sched::Policy policy,
                                              double slo_s = 0.0);

    /// Non-blocking: true when the ticket's response is ready, filling
    /// `result` (outputs/measurement views stay valid until release()).
    /// A stale or foreign ticket throws StateError.
    [[nodiscard]] bool try_result(const Ticket& ticket, TicketResult& result);

    /// Return the ticket's node to the arena. Call exactly once per
    /// admitted ticket, after try_result() returned true.
    void release(const Ticket& ticket);

    /// Always true: every configuration serves through the sharded rings.
    /// Kept only because the repository benchmark (perfbench) still asserts
    /// it before driving the ticket API.
    [[nodiscard]] bool hot_path_active() const { return true; }

    /// Arena occupancy — the arena-stats test asserts steady state never
    /// exhausts or grows the pool.
    [[nodiscard]] std::size_t pool_live() const { return request_pool_.live(); }
    [[nodiscard]] std::size_t pool_capacity() const { return request_pool_.capacity(); }

    /// Outcome of one DAG execution through the serving tier.
    struct GraphRunResult {
        graph::Schedule planned;   ///< planner output, re-timed to submit time
        graph::Schedule executed;  ///< what the devices actually booked
        bool verified = false;     ///< both schedules passed the verifier
    };

    /// Plan, verify and execute an operator DAG at the server's current
    /// time (policy kMinEnergy optimises energy, others makespan). The
    /// independent schedule verifier checks the plan before and the booked
    /// schedule after execution; a violation (a planner bug) throws
    /// StateError instead of silently booking impossible work. Planning
    /// happens OUTSIDE scheduler_mutex_: the planner's cache lock ranks
    /// BELOW kScheduler by design, and plan_graph only touches internally
    /// synchronised state (planner cache, registry, devices). Safe to call
    /// while the server is serving batch traffic; DAG steps and batches
    /// interleave on the same device timelines.
    [[nodiscard]] GraphRunResult run_graph(const graph::Graph& graph, sched::Policy policy);

    void start();  ///< idempotent; throws after stop()
    void stop();   ///< idempotent; drains or fails-over queued requests

    [[nodiscard]] bool running() const {
        return running_.load(std::memory_order_acquire);
    }
    [[nodiscard]] double now() const { return clock_->now(); }
    /// Queued requests, including those a worker popped past while
    /// gathering a batch (still waiting, just not in a ring).
    [[nodiscard]] std::size_t queue_depth() const {
        return queue_.size() + stashed_total_.load(std::memory_order_acquire);
    }
    [[nodiscard]] const ServerConfig& config() const { return config_; }

    /// Counters + percentiles + queue gauges, readable while serving.
    [[nodiscard]] ServerSnapshot stats() const;

    /// Every serving series by name, for the obs exporters (Prometheus/CSV).
    [[nodiscard]] const obs::MetricsRegistry& metrics() const {
        return stats_.registry();
    }

    /// The per-device health tracker / circuit breaker; nullptr unless
    /// resilience is enabled.
    [[nodiscard]] fault::DeviceHealthTracker* health() { return health_.get(); }
    [[nodiscard]] const fault::DeviceHealthTracker* health() const {
        return health_.get();
    }

private:
    /// What one batch dispatch produced, whichever path (plain or
    /// resilient) ran it.
    struct DispatchResult {
        device::InferenceResult result;
        std::string served_by;     ///< device that produced `result`
        std::size_t attempts = 1;  ///< retry-ladder tries consumed
        bool hedged = false;       ///< a duplicate hedge dispatch was issued
    };

    /// The one admission routine behind submit() and submit_ticket(): count
    /// and trace the submission, apply the backpressure policy, and push a
    /// pool node carrying the request. `promise` (submit() only) moves into
    /// the node on admission and is completed here on refusal; without one
    /// the node carries the response for a ticket.
    SubmitOutcome admit(std::string_view model_name, std::span<const float> payload,
                        std::size_t samples, sched::Policy policy, double slo_s,
                        std::promise<Response>* promise);
    /// kRejectOldest: free one queue slot by completing a queued node
    /// kEvicted, using the pops a worker uses (the newcomer's shard, from
    /// its lane on, then a steal). Evicts nothing when every ring it probed
    /// was empty.
    void evict_one(std::size_t shard, std::size_t lane);

    struct Worker;  ///< per-worker state: stash, scratch, stats shards
    void worker_loop(std::size_t worker_index);
    HotRequest* next_leader(Worker& w);
    void gather(Worker& w, HotRequest* leader);
    void shed_unmeetable(Worker& w, double dispatch_now);
    void execute(Worker& w, double dispatch_now);
    void complete_terminal(HotRequest* node, RequestStatus status,
                           const char* error = nullptr);
    void flush_if_due(Worker& w);
    void refresh_snapshot();

    /// The resilient dispatch path: health-partition the devices, decide
    /// with exclusions, retry across candidates, hedge stragglers. May throw
    /// (exhausted retries, every device excluded) — the caller fails the
    /// batch exactly as on the plain path.
    DispatchResult dispatch_resilient(const sched::ScheduleRequest& schedule_request,
                                      const Tensor& input, double dispatch_now,
                                      const device::SubmitOptions& submit_options);

    ServerConfig config_;
    const Clock* clock_;
    sched::OnlineScheduler* scheduler_ MW_PT_GUARDED_BY(scheduler_mutex_);
    sched::Dispatcher* dispatcher_;

    ServerStats stats_;
    /// run_graph's series, registered once at construction.
    struct GraphMetrics {
        obs::Counter& runs;
        obs::Counter& steps;
        obs::Counter& fused_ops;
        obs::Gauge& spill_seconds;
    };
    GraphMetrics graph_metrics_;
    AdmissionController admission_;
    std::unique_ptr<fault::DeviceHealthTracker> health_;  ///< resilience only

    RequestPool request_pool_;
    ShardedRequestQueue queue_;
    std::unique_ptr<EpochCell<sched::SchedulerSnapshot>> snapshot_cell_;
    Atomic<std::size_t> submit_shard_{0};    ///< round-robin scatter cursor
    Atomic<bool> snapshot_claim_{false};     ///< one refresher at a time
    Atomic<std::size_t> stashed_total_{0};   ///< worker-stashed (still queued) nodes

    Mutex scheduler_mutex_{LockRank::kScheduler};  ///< OnlineScheduler is not thread-safe
    Atomic<std::uint64_t> next_id_{1};
    Atomic<std::size_t> inflight_{0};
    Atomic<bool> running_{false};
    Atomic<bool> stopped_{false};
    Atomic<std::size_t> admitting_{0};  ///< admit() calls in flight (stop() waits them out)

    std::unique_ptr<ThreadPool> pool_;
    std::vector<std::future<void>> workers_;
};

}  // namespace mw::serve
