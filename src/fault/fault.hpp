// mw::fault — deterministic, seedable fault injection for the device
// execution path, plus the exception vocabulary the resilient dispatch
// layers react to.
//
// The injector wraps Dispatcher::run_on (installed through
// Dispatcher::set_fault_injector): before a submission it may throw a
// TransientFault (injectable transient kernel failure) or a DeviceDownError
// (hard device-down state armed by kill_device); after a successful
// submission it may stretch the measurement by a multiplicative straggler
// latency factor. Every draw comes from a per-device deterministic RNG
// stream derived from one seed (device names are hashed with FNV-1a, not
// std::hash, so a chaos seed reproduces across platforms). Time is read
// only through the injected mw::Clock (mw-analyze: clock-confinement) and is
// used solely to timestamp the kFault trace spans — the injector keeps no
// timers of its own.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/sync.hpp"
#include "common/timer.hpp"
#include "device/measurement.hpp"
#include "obs/metrics.hpp"

namespace mw::fault {

/// Base class of every injected fault. The resilient dispatch path retries
/// on these — and only these: genuine precondition errors (unknown model,
/// zero batch) propagate immediately, because no other device would answer
/// them either.
class FaultError : public Error {
public:
    explicit FaultError(const std::string& what) : Error(what) {}
};

/// A kernel failed transiently on one device; an immediate retry (same or
/// other device) may succeed.
class TransientFault : public FaultError {
public:
    explicit TransientFault(const std::string& what) : FaultError(what) {}
};

/// The device is hard-down (killed mid-run); every submission fails until
/// it is revived.
class DeviceDownError : public FaultError {
public:
    explicit DeviceDownError(const std::string& what) : FaultError(what) {}
};

/// Injection knobs. Probabilities are validated with MW_ASSERT_MSG — an
/// out-of-range probability is a harness programming error and aborts with
/// a named message rather than silently clamping a chaos campaign.
struct FaultConfig {
    double transient_failure_p = 0.0;  ///< P(submission throws TransientFault)
    double straggler_p = 0.0;          ///< P(submission is stretched)
    double straggler_factor = 4.0;     ///< multiplicative latency factor, >= 1
    std::uint64_t seed = 1;            ///< root of every per-device stream
};

/// Thread safety: all members may be called concurrently (one internal
/// mutex, rank kFaultInject, guards the per-device streams and down flags);
/// kill/revive may race with in-flight executions by design — that is the
/// chaos being modelled.
class FaultInjector {
public:
    FaultInjector(FaultConfig config, const Clock& clock,
                  obs::MetricsRegistry* metrics = nullptr);

    FaultInjector(const FaultInjector&) = delete;
    FaultInjector& operator=(const FaultInjector&) = delete;

    /// Arm the hard device-down state: every subsequent submission to
    /// `device_name` throws DeviceDownError until revive_device().
    void kill_device(const std::string& device_name);
    void revive_device(const std::string& device_name);
    [[nodiscard]] bool device_down(const std::string& device_name) const;

    /// Consulted by Dispatcher::run_on before the device executes. Throws
    /// DeviceDownError / TransientFault per the armed state and the
    /// device's deterministic stream; emits a kFault span either way.
    void before_execute(const std::string& device_name, double now,
                        std::uint64_t trace_id);

    /// Consulted after a successful execution: may stretch `m` by the
    /// straggler factor (end_time only — the device's own queue state is
    /// untouched; see DESIGN.md §11 for why that is the modelled semantics).
    void after_execute(const std::string& device_name, device::Measurement& m,
                       std::uint64_t trace_id);

    [[nodiscard]] const FaultConfig& config() const { return config_; }

    // --- injection counters (also registered as mw_fault_* when a metrics
    // --- registry was supplied) ---
    [[nodiscard]] std::uint64_t transients_injected() const {
        return transients_.load(std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
    }
    [[nodiscard]] std::uint64_t stragglers_injected() const {
        return stragglers_.load(std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
    }
    [[nodiscard]] std::uint64_t down_rejections() const {
        return down_rejections_.load(std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
    }

private:
    struct DeviceState {
        Rng rng{0};
        bool down = false;
    };

    [[nodiscard]] DeviceState& state_for(const std::string& device_name)
        MW_REQUIRES(mutex_);

    FaultConfig config_;
    const Clock* clock_;

    mutable Mutex mutex_{LockRank::kFaultInject};
    std::map<std::string, DeviceState> states_ MW_GUARDED_BY(mutex_);

    Atomic<std::uint64_t> transients_{0};
    Atomic<std::uint64_t> stragglers_{0};
    Atomic<std::uint64_t> down_rejections_{0};

    // Optional registry-backed mirrors (nullptr when no registry given).
    obs::Counter* transients_metric_ = nullptr;
    obs::Counter* stragglers_metric_ = nullptr;
    obs::Counter* down_metric_ = nullptr;
};

}  // namespace mw::fault
