// Simulated network transport: named endpoints exchange serialized frames
// over per-link latency/bandwidth models. send() computes a delivery time on
// the injected mw::Clock — max(now, link busy) + latency + bytes/bandwidth —
// and queues the frame; delivery workers hand frames whose time has come to
// the destination's handler. No wall clock is read anywhere (mw-analyze:
// clock-confinement): tests and benches drive delivery by advancing a
// ManualClock, so a "network" round trip is deterministic.
//
// The per-link busy_until models serialization on the wire: back-to-back
// frames on one link queue behind each other exactly like batches queue on a
// Device's timeline. An optional NetFaultInjector vets every send — drops
// (also: killed endpoints, partition cuts) are silent, exactly like a real
// lossy fabric, which is what forces the Router to own timeout/reroute.
//
// Thread safety: one mutex (rank kClusterTransport) guards the frame heap,
// endpoint table, and link state. Handlers are invoked with NO transport
// lock held (a handler may call back into send()). Handlers must stay
// registered until stop() returns; the owning tier tears down router ->
// transport -> nodes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <vector>

#include "cluster/packet.hpp"
#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "fault/netfault.hpp"
#include "obs/metrics.hpp"

namespace mw::cluster {

/// One directed link's wire model.
struct LinkConfig {
    double latency_s = 1e-4;        ///< propagation delay
    double bandwidth_bps = 1e9;     ///< serialization rate (bits/second)
};

struct TransportConfig {
    LinkConfig default_link{};
    std::size_t delivery_workers = 1;
    /// Idle re-check period for the delivery workers, real time. The
    /// simulated clock can advance without a notify, so workers poll.
    double poll_s = 0.0005;
};

class Transport {
public:
    using Handler = std::function<void(const std::string& from, const Frame& frame)>;

    explicit Transport(const Clock& clock, TransportConfig config = {},
                       fault::NetFaultInjector* net = nullptr,
                       obs::MetricsRegistry* metrics = nullptr);
    ~Transport();

    Transport(const Transport&) = delete;
    Transport& operator=(const Transport&) = delete;

    /// Attach `handler` as endpoint `name`. Frames sent to `name` are
    /// delivered to it (on a delivery worker thread). Re-registering a name
    /// replaces the handler.
    void register_endpoint(const std::string& name, Handler handler);

    /// Override the wire model of the directed link from -> to.
    void set_link(const std::string& from, const std::string& to, LinkConfig link);

    /// Queue one frame for delivery. Silently dropped (counted) when the
    /// destination is unknown, the transport is stopped, or the fault
    /// injector cuts it. `trace_id` correlates the kLink span.
    void send(const std::string& from, const std::string& to, Frame frame,
              std::uint64_t trace_id = 0);

    /// Stop delivery. Frames still in flight are dropped (counted); the
    /// router completes their requests via its timeout/shutdown path.
    void stop();

    [[nodiscard]] std::uint64_t frames_sent() const {
        return sent_.load(std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
    }
    [[nodiscard]] std::uint64_t frames_delivered() const {
        return delivered_.load(std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
    }
    [[nodiscard]] std::uint64_t frames_dropped() const {
        return dropped_.load(std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
    }
    [[nodiscard]] std::uint64_t bytes_sent() const {
        return bytes_.load(std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
    }
    [[nodiscard]] std::size_t in_flight() const;

private:
    /// One queued frame, ordered by (deliver_at, seq) — seq breaks ties so
    /// equal-time frames deliver in send order.
    struct InFlight {
        double deliver_at = 0.0;
        double sent_at = 0.0;
        std::uint64_t seq = 0;
        std::uint64_t trace_id = 0;
        std::string from;
        std::string to;
        Frame frame;

        bool operator>(const InFlight& other) const {
            if (deliver_at != other.deliver_at) return deliver_at > other.deliver_at;
            return seq > other.seq;
        }
    };

    void delivery_loop();
    [[nodiscard]] LinkConfig link_for(const std::string& key) const MW_REQUIRES(mutex_);

    TransportConfig config_;
    const Clock* clock_;
    fault::NetFaultInjector* net_;

    mutable Mutex mutex_{LockRank::kClusterTransport};
    CondVar activity_;
    std::priority_queue<InFlight, std::vector<InFlight>, std::greater<>>
        heap_ MW_GUARDED_BY(mutex_);
    std::map<std::string, Handler> endpoints_ MW_GUARDED_BY(mutex_);
    std::map<std::string, LinkConfig> links_ MW_GUARDED_BY(mutex_);       ///< key "from->to"
    std::map<std::string, double> link_busy_ MW_GUARDED_BY(mutex_);       ///< key "from->to"
    std::uint64_t next_seq_ MW_GUARDED_BY(mutex_) = 0;
    bool stopped_ MW_GUARDED_BY(mutex_) = false;

    Atomic<std::uint64_t> sent_{0};
    Atomic<std::uint64_t> delivered_{0};
    Atomic<std::uint64_t> dropped_{0};
    Atomic<std::uint64_t> bytes_{0};

    obs::Counter* sent_metric_ = nullptr;
    obs::Counter* delivered_metric_ = nullptr;
    obs::Counter* dropped_metric_ = nullptr;
    obs::Counter* bytes_metric_ = nullptr;

    ThreadPool pool_;
    std::vector<std::future<void>> workers_;
};

}  // namespace mw::cluster
