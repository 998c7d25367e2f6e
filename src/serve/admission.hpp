// Admission: the serving layer's backpressure policy and the per-model
// execute-latency estimator deadline shedding judges against. A full queue
// never blocks a client — the policy decides what to sacrifice:
//
//   reject-newest   refuse the incoming request (classic bounded queue)
//   reject-oldest   evict a queued request to make room — the head of one
//                   lane ring (freshest data wins: streaming analytics)
//   deadline-shed   refuse requests whose latency SLO is unmeetable on
//                   arrival, drop queued ones that became unmeetable when a
//                   worker dispatches them, and refuse the newcomer when the
//                   queue is full (rings cannot remove from the middle)
//
// Deadline feasibility combines the observed queue wait with a per-model
// EWMA of execute latency, so shedding sharpens as the server learns how
// expensive each model is. The Server applies the policy (server.cpp); this
// file holds the knobs and the estimator.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "common/stats.hpp"
#include "common/sync.hpp"

namespace mw::serve {

enum class BackpressurePolicy { kRejectNewest, kRejectOldest, kDeadlineShed };

[[nodiscard]] inline std::string backpressure_name(BackpressurePolicy policy) {
    switch (policy) {
        case BackpressurePolicy::kRejectNewest: return "reject-newest";
        case BackpressurePolicy::kRejectOldest: return "reject-oldest";
        case BackpressurePolicy::kDeadlineShed: return "deadline-shed";
    }
    return "unknown";
}

struct AdmissionConfig {
    BackpressurePolicy policy = BackpressurePolicy::kRejectNewest;
    /// Applied to requests that carry no SLO of their own (0 = none).
    double default_slo_s = 0.0;
    /// Smoothing of the per-model execute-latency estimator.
    double ewma_alpha = 0.2;
    /// Execute-latency estimate for models with no EWMA samples yet. An
    /// unseen model is *unknown*, not free: with a 0 estimate kDeadlineShed
    /// could never shed a cold model's requests, so "hopeless on arrival"
    /// was a no-op until the EWMA warmed. Must be positive.
    double cold_execute_prior_s = 1e-3;
};

/// Thread safety: all members may be called concurrently.
class AdmissionController {
public:
    explicit AdmissionController(AdmissionConfig config);

    /// Feed an observed execute latency into the per-model estimator.
    void observe_execute(std::string_view model_name, double execute_s);

    /// Current execute-latency estimate for a model. A model with no
    /// observations yet reports cold_execute_prior_s, never 0.
    [[nodiscard]] double estimated_execute_s(std::string_view model_name) const;

    /// True when a request admitted at `arrival_s` with latency SLO `slo_s`
    /// can no longer meet it at time `now` (no SLO -> never). Used at
    /// admission and again at dispatch time.
    [[nodiscard]] bool deadline_unmeetable(std::string_view model_name, double slo_s,
                                           double arrival_s, double now) const;

    [[nodiscard]] const AdmissionConfig& config() const { return config_; }

private:
    AdmissionConfig config_;

    mutable Mutex mutex_{LockRank::kAdmission};
    std::map<std::string, Ewma, std::less<>> execute_ewma_ MW_GUARDED_BY(mutex_);
};

}  // namespace mw::serve
