#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/stats.hpp"

namespace pb {

double percentile(std::vector<double> values, double q) {
    if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
    const double clamped = std::clamp(q, 0.0, 1.0);
    // Nearest rank: the smallest value with at least q of the sample at or
    // below it.
    const auto n = values.size();
    std::size_t rank = static_cast<std::size_t>(std::ceil(clamped * static_cast<double>(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    std::nth_element(values.begin(), values.begin() + static_cast<long>(rank - 1), values.end());
    return values[rank - 1];
}

bool supports_percentile(std::size_t samples, double q, std::size_t beyond) {
    // Integer arithmetic on (1 - q) in parts per million avoids 1000 * 0.01
    // rounding below 10.
    const auto tail_ppm = static_cast<std::size_t>(std::llround((1.0 - q) * 1e6));
    return samples * tail_ppm >= beyond * 1'000'000;
}

double windowed_percentile(const std::vector<double>& values, double q,
                           std::size_t max_windows, std::size_t beyond) {
    std::size_t windows = std::max<std::size_t>(max_windows, 1);
    while (windows > 1 && !supports_percentile(values.size() / windows, q, beyond)) --windows;
    std::vector<double> per_window;
    for (std::size_t w = 0; w < windows; ++w) {
        const auto begin = values.begin() + static_cast<long>(values.size() * w / windows);
        const auto end = values.begin() + static_cast<long>(values.size() * (w + 1) / windows);
        per_window.push_back(percentile({begin, end}, q));
    }
    return mw::median(per_window);
}

bool step_passes(const LadderStep& step, double max_miss_share) {
    if (step.sent == 0 || step.backlog_grew) return false;
    return static_cast<double>(step.missed) <= max_miss_share * static_cast<double>(step.sent);
}

double goodput(const std::vector<LadderStep>& steps, double max_miss_share) {
    std::vector<LadderStep> sorted = steps;
    std::sort(sorted.begin(), sorted.end(),
              [](const LadderStep& a, const LadderStep& b) { return a.rate < b.rate; });
    double best = 0.0;
    for (const LadderStep& step : sorted) {
        if (!step_passes(step, max_miss_share)) break;
        best = step.rate;
    }
    return best;
}

double ladder_rate(double base, double ratio, std::size_t k) {
    return base * std::pow(ratio, static_cast<double>(k));
}

}  // namespace pb
