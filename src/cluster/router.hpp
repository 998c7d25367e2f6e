// cluster::Router: the fleet front door. Clients submit InferenceRequests
// and get futures, exactly like talking to one serve::Server — but the
// router serializes each request into a RequestPacket, picks a replica node
// (consistent-hash or least-loaded over the model's placement), and sends
// the frame over the simulated Transport. Responses complete the client's
// promise; silence is handled by the router itself, because a lossy fabric
// gives no other signal:
//
//   - every pending request carries an injected-clock deadline; a
//     maintenance thread expires it, feeds the miss into the per-node
//     DeviceHealthTracker (the same closed/open/half-open breaker the
//     single-node resilience path uses, keyed by node name), and re-sends
//     the kept frame to another replica up to max_attempts;
//   - routing consults the breaker first, so a partitioned or killed node
//     stops receiving traffic within the breaker window and is re-admitted
//     by half-open probes after the fabric heals;
//   - optional cross-node hedging duplicates a quiet request to a second
//     replica after hedge_timeout_s; the first response wins, the loser is
//     ignored as stale.
//
// Accounting is exact: every submitted request reaches exactly one terminal
// status (the six serve::RequestStatus values), counted both in atomics
// (RouterCounters::balanced()) and as mw_cluster_* registry series. stop()
// completes everything still pending as kShutdown.
//
// Thread safety: submit() and counters() from any thread. One mutex (rank
// kClusterRouter, ordered before the transport and everything below it)
// guards the pending table, placement, ring, and load gauges; promises are
// completed with no lock held. Time is read only through the injected
// mw::Clock (mw-analyze: clock-confinement).
#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cluster/packet.hpp"
#include "cluster/transport.hpp"
#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "fault/health.hpp"
#include "obs/metrics.hpp"
#include "serve/request.hpp"

namespace mw::cluster {

enum class RoutePolicy {
    kConsistentHash,  ///< stable model+id ring placement (cache affinity)
    kLeastLoaded,     ///< fewest outstanding requests (load balance)
};

struct RouterConfig {
    std::string name = "router";  ///< this endpoint's transport name
    RoutePolicy policy = RoutePolicy::kLeastLoaded;
    std::size_t vnodes_per_node = 64;  ///< ring points per node (hash policy)
    /// Injected-clock deadline per attempt; expiry counts as a node failure
    /// and triggers reroute (or kFailed once attempts are exhausted).
    double request_timeout_s = 0.25;
    std::size_t max_attempts = 3;
    /// Duplicate a quiet request to a second replica after this long;
    /// 0 disables cross-node hedging.
    double hedge_timeout_s = 0.0;
    /// Real-time cadence of the deadline/hedge sweep.
    double maintenance_poll_s = 0.002;
    /// Per-node breaker tuning (cooldowns elapse on the injected clock).
    fault::HealthConfig health{};
};

/// What a client's future resolves to.
struct ClusterResponse {
    serve::RequestStatus status = serve::RequestStatus::kFailed;
    std::string node_name;    ///< the replica that terminated it
    std::string device_name;  ///< that node's scheduler pick (kCompleted only)
    std::string error;
    Tensor outputs;
    double queue_s = 0.0;      ///< node-side admission -> dispatch
    double execute_s = 0.0;    ///< device execution latency (incl. device-queue wait)
    double service_s = 0.0;    ///< pure device busy time (end - start)
    double end_time_s = 0.0;   ///< device-timeline completion (kCompleted only)
    double energy_j = 0.0;
    double round_trip_s = 0.0; ///< router clock, submit -> promise completion
    std::size_t attempts = 1;  ///< router-level sends (1 = first replica answered)
    bool hedged = false;       ///< a cross-node (or node-side) hedge was issued

    [[nodiscard]] bool ok() const { return status == serve::RequestStatus::kCompleted; }
};

/// Router-level accounting. balanced() is the exactness invariant: every
/// submit reaches exactly one terminal status.
struct RouterCounters {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected_full = 0;
    std::uint64_t evicted = 0;
    std::uint64_t shed = 0;
    std::uint64_t failed = 0;
    std::uint64_t shutdown = 0;
    std::uint64_t rerouted = 0;  ///< deadline-expired re-sends
    std::uint64_t hedges = 0;    ///< cross-node duplicates issued
    std::uint64_t timeouts = 0;  ///< attempt deadlines that expired
    std::uint64_t stale = 0;     ///< responses with no pending entry

    [[nodiscard]] std::uint64_t terminal() const {
        return completed + rejected_full + evicted + shed + failed + shutdown;
    }
    [[nodiscard]] bool balanced() const { return submitted == terminal(); }
};

class Router {
public:
    /// Registers itself on `transport` under config.name. `metrics` hosts
    /// the mw_cluster_* series; the router owns a private registry when
    /// nullptr.
    Router(const Clock& clock, Transport& transport, RouterConfig config = {},
           obs::MetricsRegistry* metrics = nullptr);
    ~Router();

    Router(const Router&) = delete;
    Router& operator=(const Router&) = delete;

    /// Declare a replica: `node` (a transport endpoint name) hosts `models`.
    void add_node(const std::string& node, const std::vector<std::string>& models);

    /// Route one request to the fleet. The future always resolves — with the
    /// node's outcome, or kFailed ("no healthy replica" / unreachable after
    /// max_attempts), or kShutdown if the router stops first.
    std::future<ClusterResponse> submit(serve::InferenceRequest request);

    /// Complete every pending request as kShutdown and stop the maintenance
    /// sweep. Idempotent.
    void stop();

    [[nodiscard]] RouterCounters counters() const;
    [[nodiscard]] std::size_t pending() const;
    [[nodiscard]] std::size_t outstanding(const std::string& node) const;
    [[nodiscard]] fault::DeviceHealthTracker& health() { return health_; }
    [[nodiscard]] const obs::MetricsRegistry& metrics() const { return *metrics_; }
    [[nodiscard]] const RouterConfig& config() const { return config_; }

private:
    struct PendingEntry {
        std::promise<ClusterResponse> promise;
        Frame frame;  ///< the serialized request, kept for reroute/hedge
        std::string model;
        double submit_s = 0.0;
        double sent_at_s = 0.0;
        double deadline_s = 0.0;
        std::size_t attempts = 1;
        bool hedged = false;
        std::vector<std::string> nodes;  ///< charged replicas; back() = primary
    };

    void handle_frame(const std::string& from, const Frame& frame);
    void maintenance_loop();
    void complete(PendingEntry entry, ClusterResponse response);
    void count_terminal(serve::RequestStatus status);

    /// Pick a replica of `model` whose breaker admits it, excluding
    /// `exclude`; nullopt when none qualifies.
    [[nodiscard]] std::optional<std::string> pick_node(
        const std::string& model, std::uint64_t id,
        const std::vector<std::string>& exclude) MW_REQUIRES(mutex_);

    void release_charges(const PendingEntry& entry) MW_REQUIRES(mutex_);

    RouterConfig config_;
    const Clock* clock_;
    Transport* transport_;

    std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
    obs::MetricsRegistry* metrics_;
    fault::DeviceHealthTracker health_;

    mutable Mutex mutex_{LockRank::kClusterRouter};
    std::map<std::uint64_t, PendingEntry> pending_ MW_GUARDED_BY(mutex_);
    std::map<std::string, std::vector<std::string>> placement_ MW_GUARDED_BY(mutex_);
    std::map<std::string, std::size_t> outstanding_ MW_GUARDED_BY(mutex_);
    std::set<std::string> nodes_ MW_GUARDED_BY(mutex_);
    std::vector<std::pair<std::uint64_t, std::string>> ring_ MW_GUARDED_BY(mutex_);
    std::size_t rr_ MW_GUARDED_BY(mutex_) = 0;  ///< least-loaded tie rotation

    Atomic<std::uint64_t> next_id_{1};
    Atomic<bool> stopped_{false};

    Atomic<std::uint64_t> submitted_{0};
    Atomic<std::uint64_t> completed_{0};
    Atomic<std::uint64_t> rejected_full_{0};
    Atomic<std::uint64_t> evicted_{0};
    Atomic<std::uint64_t> shed_{0};
    Atomic<std::uint64_t> failed_{0};
    Atomic<std::uint64_t> shutdown_{0};
    Atomic<std::uint64_t> rerouted_{0};
    Atomic<std::uint64_t> hedges_{0};
    Atomic<std::uint64_t> timeouts_{0};
    Atomic<std::uint64_t> stale_{0};

    obs::Counter* submitted_metric_ = nullptr;
    obs::Counter* completed_metric_ = nullptr;
    obs::Counter* failed_metric_ = nullptr;
    obs::Counter* rejected_metric_ = nullptr;
    obs::Counter* shutdown_metric_ = nullptr;
    obs::Counter* rerouted_metric_ = nullptr;
    obs::Counter* hedges_metric_ = nullptr;
    obs::Counter* timeouts_metric_ = nullptr;

    ThreadPool pool_{1};
    std::future<void> maintenance_;
};

}  // namespace mw::cluster
