#include "serve/admission.hpp"

#include "common/error.hpp"

namespace mw::serve {

AdmissionController::AdmissionController(AdmissionConfig config) : config_(config) {
    MW_CHECK(config_.ewma_alpha > 0.0 && config_.ewma_alpha <= 1.0,
             "ewma_alpha must be in (0,1]");
    MW_CHECK(config_.default_slo_s >= 0.0, "default_slo_s must be non-negative");
    MW_CHECK(config_.cold_execute_prior_s > 0.0,
             "cold_execute_prior_s must be positive (an unseen model is unknown, "
             "not free)");
}

void AdmissionController::observe_execute(std::string_view model_name,
                                          double execute_s) {
    const MutexLock lock(mutex_);
    auto it = execute_ewma_.find(model_name);
    if (it == execute_ewma_.end()) {
        it = execute_ewma_.emplace(std::string(model_name), Ewma(config_.ewma_alpha)).first;
    }
    it->second.add(execute_s);
}

double AdmissionController::estimated_execute_s(std::string_view model_name) const {
    const MutexLock lock(mutex_);
    const auto it = execute_ewma_.find(model_name);
    if (it != execute_ewma_.end() && !it->second.empty()) return it->second.value();
    // Cold model: unknown, not free. Returning 0 here made kDeadlineShed blind
    // to cold models — no request could ever be hopeless on arrival until the
    // EWMA warmed up.
    return config_.cold_execute_prior_s;
}

bool AdmissionController::deadline_unmeetable(std::string_view model_name, double slo_s,
                                              double arrival_s, double now) const {
    if (slo_s <= 0.0) return false;
    const double remaining = slo_s - (now - arrival_s);
    if (remaining <= 0.0) return true;
    return estimated_execute_s(model_name) > remaining;
}

}  // namespace mw::serve
