// Open-loop pacing and the generator-lag check.
#pragma once

#include <chrono>
#include <cstddef>
#include <vector>

namespace pb {

/// Seconds on the steady clock since the pacer's epoch.
class Pacer {
public:
    using SteadyClock = std::chrono::steady_clock;

    Pacer() : epoch_(SteadyClock::now()) {}

    [[nodiscard]] double now() const {
        return std::chrono::duration<double>(SteadyClock::now() - epoch_).count();
    }

    /// Busy-wait until `at_s`; returns how late the caller is on return
    /// (>= 0). The generator owns a core, so it never sleeps.
    double wait_until(double at_s) const;

private:
    SteadyClock::time_point epoch_;
};

/// How late the generator sent against its schedule.
struct LagReport {
    double p99_s = 0.0;
    double max_s = 0.0;
    bool ok = true;  ///< p99 lag within the limit
};

/// The generator is trusted only while its p99 lag stays within `limit_s`;
/// beyond it the latency figures measure the generator, not the server.
[[nodiscard]] LagReport check_lag(const std::vector<double>& lags_s, double limit_s);

}  // namespace pb
