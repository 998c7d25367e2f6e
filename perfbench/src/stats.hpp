// Order statistics and the goodput rule of the benchmark.
#pragma once

#include <cstddef>
#include <vector>

namespace pb {

/// Nearest-rank percentile (q in [0, 1]) of `values`; NaN when empty.
/// Unlike mw::percentile, which interpolates, it returns a latency some
/// request actually saw, and the sample rule below counts the samples above
/// that value.
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// A tail percentile q is reported only when at least `beyond` samples lie
/// above it, so p99 needs 1000 samples.
[[nodiscard]] bool supports_percentile(std::size_t samples, double q, std::size_t beyond = 10);

/// The q-percentile of a run's latencies, robust to a stall confined to part
/// of the run: `values` (in send order) are cut into equal consecutive
/// windows, as many as keep `beyond` samples above q in each (at most
/// `max_windows`, at least one), and the median of the windows'
/// percentiles is returned.
[[nodiscard]] double windowed_percentile(const std::vector<double>& values, double q,
                                         std::size_t max_windows, std::size_t beyond = 10);

/// One rung of a rate ladder: what was sent at `rate`, how many of those
/// requests missed the workload's latency limit (refusals and failures
/// count as misses), and whether the backlog grew during the step.
struct LadderStep {
    double rate = 0.0;
    std::size_t sent = 0;
    std::size_t missed = 0;
    bool backlog_grew = false;
};

/// A step passes when at most `max_miss_share` of its requests missed and
/// the backlog did not grow.
[[nodiscard]] bool step_passes(const LadderStep& step, double max_miss_share = 0.01);

/// Highest passing rate below which no probed step failed; 0 when the lowest
/// probed step fails. Steps may be given in any order.
[[nodiscard]] double goodput(const std::vector<LadderStep>& steps,
                             double max_miss_share = 0.01);

/// Bisection over a geometric ladder of `count` rungs from `base` up by
/// `ratio`: probes O(log count) rungs, calling `probe(rate)` for each and
/// returning one step per probed rung. A failing rung is probed again, up to
/// `tries` times in all, and counts as passing if any probe passes, so one
/// stall from outside the process does not cap goodput. Assumes passing is
/// monotone in the rate; a non-monotone outcome only lowers goodput().
template <typename Probe>
std::vector<LadderStep> bisect_ladder(double base, double ratio, std::size_t count,
                                      std::size_t tries, Probe&& probe);

/// Rate of rung k of the ladder.
[[nodiscard]] double ladder_rate(double base, double ratio, std::size_t k);

template <typename Probe>
std::vector<LadderStep> bisect_ladder(double base, double ratio, std::size_t count,
                                      std::size_t tries, Probe&& probe) {
    std::vector<LadderStep> steps;
    // Invariant: rung lo passed (or is the virtual rung -1), rung hi failed
    // (or is the virtual rung `count`).
    long lo = -1;
    long hi = static_cast<long>(count);
    while (hi - lo > 1) {
        const long mid = lo + (hi - lo) / 2;
        const double rate = ladder_rate(base, ratio, static_cast<std::size_t>(mid));
        LadderStep step = probe(rate);
        for (std::size_t t = 1; t < tries && !step_passes(step); ++t) step = probe(rate);
        const bool pass = step_passes(step);
        steps.push_back(step);
        (pass ? lo : hi) = mid;
    }
    return steps;
}

}  // namespace pb
