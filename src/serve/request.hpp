// mw::serve request/response vocabulary: what clients hand to the Server and
// what they get back. The queued form is the pooled HotRequest node
// (request_pool.hpp).
#pragma once

#include <cstddef>
#include <string>
#include <utility>

#include "device/measurement.hpp"
#include "sched/policy.hpp"
#include "tensor/tensor.hpp"

namespace mw::serve {

/// Number of scheduling policies, i.e. of queue lanes / stat groups.
inline constexpr std::size_t kPolicyLanes = 3;

/// Lane index of a policy (stable: enum order).
[[nodiscard]] constexpr std::size_t lane_of(sched::Policy policy) {
    return static_cast<std::size_t>(policy);
}

/// Terminal state of a submitted request.
enum class RequestStatus {
    kCompleted,     ///< executed; outputs/measurement are valid
    kRejectedFull,  ///< refused at admission: queue at capacity
    kEvicted,       ///< admitted, then displaced by reject-oldest backpressure
    kShedDeadline,  ///< dropped: its latency SLO was already unmeetable
    kShutdown,      ///< the server stopped before the request could run
    kFailed,        ///< execution threw; see Response::error
};

/// Name of a status as a literal (no allocation: trace labels use it).
[[nodiscard]] constexpr const char* status_label(RequestStatus status) {
    switch (status) {
        case RequestStatus::kCompleted: return "completed";
        case RequestStatus::kRejectedFull: return "rejected-full";
        case RequestStatus::kEvicted: return "evicted";
        case RequestStatus::kShedDeadline: return "shed-deadline";
        case RequestStatus::kShutdown: return "shutdown";
        case RequestStatus::kFailed: return "failed";
    }
    return "unknown";
}

/// What a client's future resolves to.
struct Response {
    RequestStatus status = RequestStatus::kFailed;
    std::string device_name;          ///< the scheduler's pick (kCompleted only)
    Tensor outputs;                   ///< this request's rows of the batch output
    device::Measurement measurement;  ///< of the executed (possibly coalesced) batch
    std::size_t coalesced = 1;        ///< requests sharing the executed batch
    double queue_s = 0.0;             ///< admission -> dispatch (server clock)
    double execute_s = 0.0;           ///< batch execution latency (device timeline)
    std::size_t attempts = 1;         ///< dispatch tries (resilient path; 1 = clean)
    bool hedged = false;              ///< a straggler hedge was issued for the batch
    std::string error;                ///< diagnostics when kFailed

    [[nodiscard]] bool ok() const { return status == RequestStatus::kCompleted; }
};

/// Response carrying only a terminal status (rejection, shed, shutdown,
/// failure) — no outputs or measurement.
[[nodiscard]] inline Response make_status_response(RequestStatus status,
                                                   std::string error = {}) {
    Response response;
    response.status = status;
    response.error = std::move(error);
    return response;
}

/// What clients hand to Server::submit.
struct InferenceRequest {
    std::string model_name;
    Tensor payload;  ///< rank-2 (samples, sample_elems), as InputSource produces
    sched::Policy policy = sched::Policy::kMaxThroughput;
    double slo_s = 0.0;  ///< end-to-end latency SLO in seconds; 0 = none
};

}  // namespace mw::serve
