#include "pacer.hpp"

#include <algorithm>

#include "stats.hpp"

namespace pb {

double Pacer::wait_until(double at_s) const {
    // Spin: on a virtual machine a sleeping thread's idle vCPU can take
    // milliseconds to wake, which would show up as generator lag.
    for (;;) {
        const double remaining = at_s - now();
        if (remaining <= 0.0) return -remaining;
    }
}

LagReport check_lag(const std::vector<double>& lags_s, double limit_s) {
    LagReport report;
    if (lags_s.empty()) return report;
    report.p99_s = percentile(lags_s, 0.99);
    report.max_s = *std::max_element(lags_s.begin(), lags_s.end());
    report.ok = report.p99_s <= limit_s;
    return report;
}

}  // namespace pb
