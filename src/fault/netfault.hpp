// NetFaultInjector: the mw::fault extension for the simulated cluster
// transport. Where FaultInjector perturbs device execution, this perturbs
// frames on links: probabilistic drop and delay per directed link, hard node
// kills, and a single network partition (a set of endpoints that can only
// reach each other). The cluster Transport consults on_frame() for every
// send, so the router's health tracking and reroute logic can be driven
// through exactly the failure modes the breaker is meant to absorb.
//
// Determinism: each directed link owns an mw::Rng stream seeded from the
// config seed salted with FNV-1a of "from->to", so a chaos seed recorded by
// CI reproduces the same drop/delay pattern regardless of thread
// interleaving or which links happen to be exercised first.
//
// Time is read only through the injected mw::Clock (mw-analyze:
// clock-confinement); drops emit kFault instants on that timeline.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/sync.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"

namespace mw::fault {

struct NetFaultConfig {
    double drop_p = 0.0;    ///< P(frame silently dropped), per link draw
    double delay_p = 0.0;   ///< P(frame delayed by delay_s), per link draw
    double delay_s = 0.005; ///< extra simulated in-flight delay when delayed
    std::uint64_t seed = 1; ///< base seed for the per-link streams
};

/// What the injector decided for one frame.
struct FrameVerdict {
    bool dropped = false;
    double extra_delay_s = 0.0;
};

/// Thread safety: all members may be called concurrently; one internal mutex
/// (rank kNetFault) guards the link streams and topology sets. The injector
/// calls into nothing while holding its lock except the trace hooks.
class NetFaultInjector {
public:
    explicit NetFaultInjector(NetFaultConfig config = {}, const Clock* clock = nullptr,
                              obs::MetricsRegistry* metrics = nullptr);

    NetFaultInjector(const NetFaultInjector&) = delete;
    NetFaultInjector& operator=(const NetFaultInjector&) = delete;

    /// Hard-kill an endpoint: every frame to or from it is dropped until
    /// revive_node(). Models a crashed node, not a slow one.
    void kill_node(const std::string& name);
    void revive_node(const std::string& name);
    [[nodiscard]] bool node_down(const std::string& name) const;

    /// Install a network partition: endpoints in `group` can reach only each
    /// other, everyone else can reach only each other. Frames crossing the
    /// cut are dropped. A second call replaces the first partition.
    void partition(std::vector<std::string> group);
    void heal_partition();
    [[nodiscard]] bool partitioned() const;

    /// Would a frame from `from` to `to` survive topology (kills +
    /// partition)? Ignores the probabilistic drop stream.
    [[nodiscard]] bool reachable(const std::string& from, const std::string& to) const;

    /// The per-frame decision: topology first (killed endpoint or partition
    /// cut -> dropped), then the link's drop/delay streams. `trace_id`
    /// correlates the kFault instant with the request the frame carries.
    [[nodiscard]] FrameVerdict on_frame(const std::string& from, const std::string& to,
                                        std::uint64_t trace_id);

    [[nodiscard]] std::uint64_t frames_dropped() const {
        return dropped_.load(std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
    }
    [[nodiscard]] std::uint64_t partition_drops() const {
        return partition_drops_.load(std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
    }
    [[nodiscard]] std::uint64_t delays_injected() const {
        return delays_.load(std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
    }

    [[nodiscard]] const NetFaultConfig& config() const { return config_; }

private:
    [[nodiscard]] Rng& stream_for(const std::string& link) MW_REQUIRES(mutex_);
    [[nodiscard]] bool reachable_locked(const std::string& from,
                                        const std::string& to) const MW_REQUIRES(mutex_);
    void count_drop(const std::string& from, const std::string& to,
                    std::uint64_t trace_id, const char* why);

    NetFaultConfig config_;
    const Clock* clock_;

    mutable Mutex mutex_{LockRank::kNetFault};
    std::map<std::string, Rng> streams_ MW_GUARDED_BY(mutex_);
    std::set<std::string> down_ MW_GUARDED_BY(mutex_);
    std::set<std::string> group_ MW_GUARDED_BY(mutex_);
    bool partitioned_ MW_GUARDED_BY(mutex_) = false;

    Atomic<std::uint64_t> dropped_{0};
    Atomic<std::uint64_t> partition_drops_{0};
    Atomic<std::uint64_t> delays_{0};

    obs::Counter* dropped_metric_ = nullptr;
    obs::Counter* partition_metric_ = nullptr;
    obs::Counter* delays_metric_ = nullptr;
};

}  // namespace mw::fault
