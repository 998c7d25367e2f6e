// DeviceHealthTracker: per-device health signals (EWMA error rate and
// execute latency) folded into a circuit breaker that feeds the scheduler's
// device-exclusion set.
//
// Breaker state machine (per device):
//
//   closed ──(consecutive failures, or error EWMA past threshold)──▶ open
//   open   ──(cooldown_s elapsed on the injected clock)────────────▶ half-open
//   half-open ──(probe succeeds)──▶ closed      (EWMA reset, re-admitted)
//   half-open ──(probe fails)────▶ open         (cooldown restarts)
//
// allow() is the single admission point: closed devices always pass, open
// devices fail until the cooldown elapses (the elapsing call transitions to
// half-open and passes — that caller is the re-probe), and half-open
// devices pass at most once per probe_interval_s so a recovering device
// sees a trickle of probes instead of the full load. Every transition
// emits a kBreaker trace span and bumps a registry counter.
//
// Time is read only through the injected mw::Clock (mw-analyze:
// clock-confinement): tests drive cooldowns with a ManualClock.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/sync.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"

namespace mw::fault {

enum class BreakerState { kClosed, kOpen, kHalfOpen };

[[nodiscard]] const char* breaker_state_name(BreakerState state) noexcept;

struct HealthConfig {
    double error_alpha = 0.3;    ///< EWMA smoothing of the 0/1 failure signal
    double latency_alpha = 0.2;  ///< EWMA smoothing of execute latency
    /// Error EWMA at or above this opens the breaker (once min_observations
    /// have accumulated).
    double open_error_threshold = 0.5;
    std::size_t min_observations = 4;
    /// Fast path: this many failures in a row open the breaker regardless
    /// of the EWMA (a hard-down device must not need the EWMA to warm up).
    std::size_t consecutive_failures_to_open = 3;
    double cooldown_s = 0.25;       ///< open -> half-open, injected-clock time
    double probe_interval_s = 0.05; ///< half-open: at most one allow() per this
};

/// Thread safety: all members may be called concurrently; one internal
/// mutex (rank kFaultHealth) guards the per-device table. The tracker calls
/// into nothing while holding its lock except the trace hooks.
class DeviceHealthTracker {
public:
    DeviceHealthTracker(HealthConfig config, const Clock& clock,
                        obs::MetricsRegistry* metrics = nullptr);

    DeviceHealthTracker(const DeviceHealthTracker&) = delete;
    DeviceHealthTracker& operator=(const DeviceHealthTracker&) = delete;

    /// Record one successful execution (closes a half-open breaker).
    void on_success(const std::string& device_name, double latency_s);

    /// Record one failed execution (may open the breaker; re-opens a
    /// half-open one).
    void on_failure(const std::string& device_name);

    /// Admission check, with the transition side effects described above.
    [[nodiscard]] bool allow(const std::string& device_name);

    /// Split `device_names` into allowed and excluded by calling allow() on
    /// each. `excluded` may be nullptr when the caller only wants the
    /// allowed set.
    [[nodiscard]] std::vector<std::string> partition_allowed(
        const std::vector<std::string>& device_names,
        std::vector<std::string>* excluded);

    [[nodiscard]] BreakerState state(const std::string& device_name) const;
    [[nodiscard]] double error_rate(const std::string& device_name) const;
    /// EWMA execute latency; 0 until the first success.
    [[nodiscard]] double latency_ewma_s(const std::string& device_name) const;

    /// Bookkeeping hooks for the dispatch layers (retry ladder, hedger) so
    /// resilience counters live in one exportable place.
    void note_retry(const std::string& device_name);
    void note_hedge(const std::string& device_name);

    [[nodiscard]] std::uint64_t retries() const {
        return retries_.load(std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
    }
    [[nodiscard]] std::uint64_t hedges() const {
        return hedges_.load(std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
    }
    [[nodiscard]] std::uint64_t breaker_opens() const {
        return opens_.load(std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
    }
    [[nodiscard]] std::uint64_t breaker_closes() const {
        return closes_.load(std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
    }

    [[nodiscard]] const HealthConfig& config() const { return config_; }

private:
    struct DeviceHealth {
        BreakerState state = BreakerState::kClosed;
        double error_ewma = 0.0;
        double latency_ewma_s = 0.0;
        std::size_t observations = 0;
        std::size_t consecutive_failures = 0;
        double reopen_at_s = 0.0;     ///< kOpen: when the breaker half-opens
        double last_probe_s = -1e300; ///< kHalfOpen: probe pacing
    };

    [[nodiscard]] DeviceHealth& health_for(const std::string& device_name)
        MW_REQUIRES(mutex_);
    void open_breaker(DeviceHealth& health, double now) MW_REQUIRES(mutex_);

    HealthConfig config_;
    const Clock* clock_;

    mutable Mutex mutex_{LockRank::kFaultHealth};
    std::map<std::string, DeviceHealth> table_ MW_GUARDED_BY(mutex_);

    Atomic<std::uint64_t> retries_{0};
    Atomic<std::uint64_t> hedges_{0};
    Atomic<std::uint64_t> opens_{0};
    Atomic<std::uint64_t> half_opens_{0};
    Atomic<std::uint64_t> closes_{0};

    obs::Counter* opens_metric_ = nullptr;
    obs::Counter* half_opens_metric_ = nullptr;
    obs::Counter* closes_metric_ = nullptr;
    obs::Counter* retries_metric_ = nullptr;
    obs::Counter* hedges_metric_ = nullptr;
};

}  // namespace mw::fault
