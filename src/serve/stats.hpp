// ServerStats: the serving layer's metrics surface. Per-policy latency
// histograms (queue wait and execute), admitted/rejected/shed/completed
// counters, and queue-depth gauges, all snapshotable while the server runs —
// benches and the demo read sustained QPS and tail latency from here.
//
// Every series is registered in an obs::MetricsRegistry (one catalogue, one
// export surface: Prometheus text / CSV via obs/export.hpp); the on_* hot
// path updates cached references with single relaxed atomic RMWs — no lock.
// Cross-counter invariants (submitted == admitted + rejected + shed, ...)
// are exact once the server has stopped; a snapshot taken mid-flight may see
// a request between two counters, exactly as under the former per-call
// mutex.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/metrics.hpp"
#include "sched/policy.hpp"
#include "serve/request.hpp"

namespace mw::serve {

/// Fixed log-spaced latency histogram (1 us .. 1000 s, 20 buckets/decade),
/// shared with the rest of the system through obs. percentile() returns NaN
/// when empty — renderers print a dash (format_duration does this).
using LatencyHistogram = obs::LogHistogram;

/// Monotonic per-policy counters. Invariant once the server has stopped:
/// submitted == admitted + rejected_full + shed (at admission), and
/// admitted == completed + failed + evicted + shed + shutdown.
struct PolicyCounters {
    std::size_t submitted = 0;
    std::size_t admitted = 0;
    std::size_t rejected_full = 0;
    std::size_t evicted = 0;
    std::size_t shed = 0;  ///< deadline-based drops (admission or dispatch)
    std::size_t completed = 0;
    std::size_t failed = 0;
    std::size_t shutdown = 0;
    std::size_t batches_executed = 0;
    std::size_t coalesced_requests = 0;  ///< requests executed across those batches
                                         ///< (ratio = mean requests per batch)
    double samples = 0.0;                ///< classified samples (completed)
    double bytes_in = 0.0;               ///< classified payload bytes (completed)
    double energy_j = 0.0;               ///< attributed device energy (completed)
};

/// One policy's counters plus histogram percentiles and queue gauge.
/// Percentiles are NaN when that lane has no completions yet.
struct PolicySnapshot {
    PolicyCounters counters;
    double queue_p50_s = 0.0, queue_p95_s = 0.0, queue_p99_s = 0.0;
    double execute_p50_s = 0.0, execute_p95_s = 0.0, execute_p99_s = 0.0;
    std::size_t queue_depth = 0;
};

/// Point-in-time view of the whole server.
struct ServerSnapshot {
    std::array<PolicySnapshot, kPolicyLanes> policy;
    std::size_t queue_depth_total = 0;

    [[nodiscard]] const PolicySnapshot& of(sched::Policy p) const {
        return policy[lane_of(p)];
    }
    [[nodiscard]] PolicyCounters totals() const;
};

/// Thread safety: all members may be called concurrently; every on_* is a
/// handful of relaxed atomic updates on registry-owned series.
class ServerStats {
public:
    ServerStats();

    void on_submitted(sched::Policy policy);
    void on_admitted(sched::Policy policy);
    void on_rejected_full(sched::Policy policy);
    void on_evicted(sched::Policy policy);
    void on_shed(sched::Policy policy);
    void on_shutdown(sched::Policy policy);

    /// Stable handles to one lane's worker-side series, for per-worker
    /// batching shards (obs::CounterShard / obs::GaugeShard): workers
    /// accumulate locally and flush these periodically instead of touching
    /// the shared cache lines per request. Admission-side outcomes
    /// (submitted, admitted, rejected, evicted, shed on arrival, shutdown)
    /// stay on the direct on_* calls.
    struct WorkerSeries {
        obs::Counter* completed;
        obs::Counter* failed;
        obs::Counter* shed;
        obs::Counter* batches_executed;
        obs::Counter* coalesced_requests;
        obs::Gauge* samples;
        obs::Gauge* bytes_in;
        obs::Gauge* energy_j;
        obs::LogHistogram* queue_hist;
        obs::LogHistogram* execute_hist;
    };
    [[nodiscard]] WorkerSeries worker_series(sched::Policy policy) {
        Lane& lane = lanes_[lane_of(policy)];
        return {lane.completed,          lane.failed,  lane.shed,
                lane.batches_executed,   lane.coalesced_requests,
                lane.samples,            lane.bytes_in, lane.energy_j,
                lane.queue_hist,         lane.execute_hist};
    }

    /// Counters + percentiles. Queue-depth gauges are filled in by the
    /// Server, which owns the queue.
    [[nodiscard]] ServerSnapshot snapshot() const;

    /// The registry behind every serving series, for the exporters.
    [[nodiscard]] const obs::MetricsRegistry& registry() const { return registry_; }

    /// Mutable registry, for co-registering non-stats serving series (the
    /// resilience layer's mw_fault_* counters) in the same export surface.
    [[nodiscard]] obs::MetricsRegistry& mutable_registry() { return registry_; }

private:
    /// Cached registry references for one policy lane: the hot path never
    /// does a name lookup.
    struct Lane {
        obs::Counter* submitted;
        obs::Counter* admitted;
        obs::Counter* rejected_full;
        obs::Counter* evicted;
        obs::Counter* shed;
        obs::Counter* completed;
        obs::Counter* failed;
        obs::Counter* shutdown;
        obs::Counter* batches_executed;
        obs::Counter* coalesced_requests;
        obs::Gauge* samples;
        obs::Gauge* bytes_in;
        obs::Gauge* energy_j;
        obs::LogHistogram* queue_hist;
        obs::LogHistogram* execute_hist;
    };

    obs::MetricsRegistry registry_;
    std::array<Lane, kPolicyLanes> lanes_;
};

}  // namespace mw::serve
