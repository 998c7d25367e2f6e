// Independent schedule verifier (the CI teeth of the DAG tier).
//
// verify_schedule() replays a schedule against its graph and memory specs
// and reports every violation of the execution contract (schedule.hpp):
// coverage, precedence, per-device overlap, scratchpad capacity, and spill
// bandwidth. It deliberately shares no code with the planner — only the
// data types — so a planner bug cannot hide behind a matching bug here;
// everything is recomputed from the graph with an independent traversal
// over the verifier's own node-indexed tables, and no table is indexed
// with a step's device index or node id before it has been range-checked.
// `mw-graph-verify` (verify_main.cpp) wraps this over schedule files.
#pragma once

#include <string>
#include <vector>

#include "graph/dag.hpp"
#include "graph/schedule.hpp"

namespace mw::graph {

enum class ViolationKind {
    kMalformed,   ///< bad indices, negative phases, non-finite times
    kCoverage,    ///< an operator scheduled zero times or more than once
    kPrecedence,  ///< a consumer step starts before a producer step ends
    kOverlap,     ///< two steps on one device overlap in time
    kCapacity,    ///< a step's peak residency exceeds the scratchpad
    kBandwidth,   ///< a load/store phase shorter than the spill link allows
};

const char* violation_kind_name(ViolationKind kind);

struct Violation {
    ViolationKind kind;
    std::string message;
};

/// Replay `schedule` against `graph`; returns every violation found (empty
/// = feasible). `rel_tol` absorbs the floating-point slack between the
/// planner's arithmetic and the replay (phases may not be *shorter* than
/// the recomputed minimum by more than this fraction).
std::vector<Violation> verify_schedule(const Graph& graph, const Schedule& schedule,
                                       double rel_tol = 1e-9);

/// Human-readable one-line-per-violation report.
std::string format_violations(const std::vector<Violation>& violations);

}  // namespace mw::graph
