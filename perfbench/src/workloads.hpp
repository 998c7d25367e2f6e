// The benchmark's workloads and the phases that drive them.
//
// Every workload builds its own World and drives it from this one process
// with seeded open-loop traffic: one client thread sends on schedule and
// observes completions between sends (the dag workload's executors observe
// their own), and server workers take the remaining cores.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/dag.hpp"
#include "graph/schedule.hpp"
#include "serve/admission.hpp"
#include "serve/request.hpp"
#include "serve/stats.hpp"
#include "traffic.hpp"

namespace pb {

/// How requests enter the server.
enum class Api {
    kTicket,  ///< submit_ticket / try_result / release (lock-free hot path)
    kFuture,  ///< submit() futures (the legacy queue, batcher, retry ladder)
    kGraph,   ///< Server::run_graph on operator DAGs
};

struct WorkloadDef {
    std::string name;
    std::string why;
    std::vector<std::string> models;  ///< zoo names
    RequestShape shape;
    Api api = Api::kTicket;
    /// Latency limit for requests without an SLO of their own; also bounds
    /// how long a phase waits for stragglers.
    double limit_s = 0.0;
    /// Lowest rung of the goodput rate ladder (see kLadderRatio).
    double ladder_base = 0.0;
    /// The reference phase: Poisson at ref_rate, or on/off bursts at
    /// ref_rate when burst_on_s > 0.
    double ref_rate = 0.0;
    double burst_on_s = 0.0;
    double burst_off_s = 0.0;
    std::size_t queue_capacity = 1024;
    mw::serve::BackpressurePolicy admission = mw::serve::BackpressurePolicy::kRejectNewest;
    bool resilience = false;
    double fault_p = 0.0;  ///< transient fault probability per dispatch
};

[[nodiscard]] const std::vector<WorkloadDef>& workloads();
[[nodiscard]] const WorkloadDef* find_workload(std::string_view name);

/// One metric as printed: `clock` is "wall" (speed of our code on the wall
/// clock), "cpu" (speed of our code in CPU time), "model" (the calibrated
/// testbed model) or "-" (neither, e.g. counts and memory).
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string clock;
    std::size_t samples = 0;
};

struct Report {
    std::vector<Metric> metrics;
    std::size_t attempted = 0;  ///< requests sent in the reference phase
    std::size_t failed = 0;     ///< of those, no correct answer
    bool correct = true;        ///< every output and schedule checked out
    std::vector<std::string> notes;

    void add(std::string name, double value, std::string unit, std::string clock,
             std::size_t samples) {
        metrics.push_back({std::move(name), value, std::move(unit), std::move(clock), samples});
    }
};

struct RunOptions {
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Server workers, or for the graph API the threads calling run_graph.
    std::size_t workers = 3;
    std::string trace_out;      ///< span CSV path ("" = do not write)
};

/// Run one workload: untraced, its end-to-end metrics; traced, its
/// per-layer metrics.
[[nodiscard]] Report run_workload(const WorkloadDef& def, const RunOptions& options);

/// What one client-observed request came to.
struct Outcome {
    double sent_s = -1.0;  ///< phase clock; < 0 = never sent
    double submit_s = 0.0; ///< time inside the submit call
    double start_s = -1.0; ///< graph API: when an executor took it
    double done_s = -1.0;  ///< when the client observed the result; < 0 = never
    mw::serve::RequestStatus status = mw::serve::RequestStatus::kFailed;
    bool correct = false;
    double queue_s = 0.0;    ///< server clock, admission to dispatch
    double busy_s = 0.0;     ///< model time of the executed batch
    std::uint32_t batch = 0; ///< samples in the executed batch
    std::uint32_t attempts = 1;
    bool hedged = false;
    int device = -1;         ///< registry index of the serving device
    double start_sim_s = 0.0;///< executed batch start, model time (batch identity)
};

/// One phase of a workload: the stream it sent and what came back.
struct Phase {
    std::vector<RequestSpec> stream;
    std::vector<Outcome> out;
    std::vector<double> lags_s;
    std::size_t backlog_max = 0;
    bool backlog_grew = false;
    double device_backlog_s = 0.0;  ///< at phase end, model time
    mw::serve::ServerSnapshot snapshot;
    std::uint64_t steady_allocs = 0;    ///< allocations in the phase's middle half
    std::size_t steady_requests = 0;    ///< requests sent in that window
    std::vector<mw::graph::Schedule> executed;  ///< graph API, by request
    std::size_t verify_failures = 0;
    std::size_t plan_cache_hits = 0;  ///< graph API: planner cache hits in the phase
    /// CPU time the serving stack spent on the phase (see process_cpu_s in
    /// workloads.cpp).
    double stack_cpu_s = 0.0;
    /// Bytes of the benchmark's own per-request arrays (stream, outcomes,
    /// lags, tickets or futures, schedules), resident throughout the phase.
    std::size_t record_bytes = 0;
};

}  // namespace pb
