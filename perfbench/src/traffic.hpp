// Seeded open-loop request streams. Everything a run sends — arrival times,
// samples per request, payload rows, policies, SLOs and graph choices — is
// drawn here from the run's seed, so one seed gives one stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/dag.hpp"
#include "graph/synth.hpp"
#include "sched/policy.hpp"

namespace pb {

/// One request as scheduled by the generator.
struct RequestSpec {
    double at_s = 0.0;           ///< scheduled send time, from phase start
    std::uint32_t model = 0;     ///< index into the workload's model list
    std::uint32_t samples = 1;   ///< payload rows
    std::uint32_t offset = 0;    ///< first row in the model's payload pool
    mw::sched::Policy policy = mw::sched::Policy::kMaxThroughput;
    double slo_s = 0.0;          ///< per-request SLO; 0 = the workload's limit
    std::uint32_t graph = 0;     ///< dag: index into the phase's graph list

    friend bool operator==(const RequestSpec&, const RequestSpec&) = default;
};

/// What a workload's requests look like, independent of their timing.
struct RequestShape {
    std::uint32_t model_count = 1;
    std::uint32_t min_samples = 1;
    std::uint32_t max_samples = 1;
    bool log_uniform_samples = false;  ///< else uniform on [min, max]
    double slo_min_s = 0.0;            ///< uniform SLO range; 0 = no SLO
    double slo_max_s = 0.0;
    std::uint32_t pool_rows = 256;     ///< payload pool rows per model
    /// dag: graphs [0, hot_graphs) repeat; every other request gets a fresh
    /// graph index, numbered from hot_graphs up in send order.
    std::uint32_t hot_graphs = 0;
    double repeat_share = 0.0;
};

/// Poisson arrivals at `rate` per second for `duration_s`.
[[nodiscard]] std::vector<RequestSpec> poisson_stream(const RequestShape& shape, double rate,
                                                      double duration_s, std::uint64_t seed);

/// On/off bursts: Poisson at `on_rate` for `on_s`, silence for `off_s`,
/// repeated for `duration_s`.
[[nodiscard]] std::vector<RequestSpec> burst_stream(const RequestShape& shape, double on_rate,
                                                    double on_s, double off_s,
                                                    double duration_s, std::uint64_t seed);

/// Distinct seeds for the phases of one run, derived from the run's seed.
[[nodiscard]] std::uint64_t phase_seed(std::uint64_t run_seed, std::uint64_t phase);

/// Shape of the dag workload's random graphs: about 200 operators, the
/// size of a real model's operator graph, so a plan costs hundreds of
/// microseconds rather than a few.
inline constexpr mw::graph::SynthConfig kDagShape{.stages = 24, .branches = 8};

/// The dag workload's fresh graph number `index`: a random layered DAG of
/// kDagShape, deterministic in (`seed`, `index`).
[[nodiscard]] mw::graph::Graph fresh_graph(std::uint64_t seed, std::uint32_t index);

}  // namespace pb
