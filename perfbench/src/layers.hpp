// The traced run's per-layer measurements: spans recorded around the
// benchmark's own calls into each module's public functions, and replays of
// a phase's recorded request stream through those functions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/dag.hpp"
#include "workloads.hpp"
#include "world.hpp"

namespace pb {

/// The calls a traced run times one by one. Calls too short to time singly
/// (scheduler decisions, predictions, pricing, ring handoffs) are timed in
/// loops and reported as per-call means, without spans.
enum class SpanName : std::uint8_t {
    kRequest,      ///< scheduled send -> client observed the result
    kSubmit,       ///< inside submit_ticket / submit
    kRunGraph,     ///< inside Server::run_graph
    kForward,      ///< Model::forward
    kPlanCold,     ///< GraphPlanner::plan on an unseen graph
    kPlanHit,      ///< OnlineScheduler::plan_graph on a cached graph
    kVerify,       ///< graph::verify_schedule
    kRunSchedule,  ///< Dispatcher::run_schedule
};

struct Span {
    SpanName name = SpanName::kRequest;
    std::uint32_t request = 0;  ///< request index in its phase; its root span is the parent
    double t0 = 0.0;
    double t1 = 0.0;
};

/// One thread's spans, kept in memory until the run ends.
class SpanLog {
public:
    void add(SpanName name, std::uint32_t request, double t0, double t1) {
        spans_.push_back({name, request, t0, t1});
    }
    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
    void append(const SpanLog& other) {
        spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
    }
    /// Durations of every span called `name`, in seconds.
    [[nodiscard]] std::vector<double> durations(SpanName name) const;
    /// CSV: name,request,parent,t0_s,t1_s.
    void write_csv(const std::string& path) const;

private:
    std::vector<Span> spans_;
};

/// Everything a run shares between its phases.
struct Ctx {
    const WorkloadDef& def;
    const RunOptions& options;
    World& world;
    const std::vector<PayloadPool>& pools;
    std::vector<mw::graph::Graph> hot_graphs;  ///< dag: the repeating graphs
    std::uint64_t speedup_seed = 0;            ///< dag: seed of plan_speedup's graphs
};

/// Replays the traced reference phase through each layer and adds the
/// per-layer metrics to `report`. `latency_p50_s` is the phase's observed
/// median latency; `spans` receives the replay spans.
void add_layer_metrics(Ctx& ctx, const Phase& ref, const std::vector<mw::graph::Graph>& graphs,
                       double latency_p50_s, Report& report, SpanLog& spans);

}  // namespace pb
