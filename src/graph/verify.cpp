#include "graph/verify.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <sstream>

namespace mw::graph {
namespace {

constexpr std::size_t kUnscheduled = static_cast<std::size_t>(-1);
constexpr double kGiga = 1e9;

std::string step_desc(const Schedule& schedule, std::size_t index) {
    std::ostringstream os;
    const Step& step = schedule.steps[index];
    os << "step " << index;
    if (step.device < schedule.devices.size()) {
        os << " (" << schedule.devices[step.device].name << ")";
    }
    return os.str();
}

/// What the replay of one step recomputes from the graph and placement
/// alone. Traffic: distinct tensors pulled in before computing and pushed
/// out afterwards, split by which tier they cross: same-device cross-step
/// tensors round-trip the device's own slow tier (`local`); cross-device
/// tensors, graph inputs and graph outputs cross the spill link (`link`).
/// Peak residency under the execution contract: all external inputs
/// resident for the whole step, fused intermediates live from production
/// until their last in-group consumer, plus the running node's output.
struct StepReplay {
    double load_link_bytes = 0.0;
    double load_local_bytes = 0.0;
    double store_link_bytes = 0.0;
    double store_local_bytes = 0.0;
    double peak_residency = 0.0;
};

/// Node-indexed tables of one verify_schedule() call. Every node id used to
/// index them is range-checked first; step_of/position hold a value for
/// every node once coverage passed.
struct ReplayTables {
    const std::vector<OpNode>& nodes;
    const ConsumerIndex& consumers;
    const std::vector<std::size_t>& step_of;
    const std::vector<std::size_t>& position;  ///< index within its step
    std::vector<std::size_t> loaded_in;        ///< last step that counted u's tensor
    std::vector<std::size_t> last_use;         ///< per step position
    std::vector<char> ephemeral;               ///< per step position
};

StepReplay replay_step(ReplayTables& t, const Schedule& schedule, std::size_t step_index) {
    const Step& step = schedule.steps[step_index];
    StepReplay replay;
    double external_in = 0.0;
    for (const NodeId v : step.nodes) {
        const double graph_input = t.nodes[v].external_in_bytes;
        replay.load_link_bytes += graph_input;
        external_in += graph_input;
        for (const NodeId u : t.nodes[v].inputs) {
            if (t.step_of[u] != step_index && t.loaded_in[u] != step_index) {
                t.loaded_in[u] = step_index;
                const bool same_device = schedule.steps[t.step_of[u]].device == step.device;
                (same_device ? replay.load_local_bytes : replay.load_link_bytes) +=
                    t.nodes[u].out_bytes;
                external_in += t.nodes[u].out_bytes;
            }
        }
    }

    // last_use[j] = last in-step position consuming step.nodes[j]'s output.
    const std::size_t size = step.nodes.size();
    t.last_use.assign(size, 0);
    t.ephemeral.assign(size, 0);
    for (std::size_t j = 0; j < size; ++j) {
        const NodeId v = step.nodes[j];
        const std::span<const NodeId> consumers = t.consumers[v];
        bool stored = consumers.empty();  // graph output -> back to the host
        bool crosses_device = consumers.empty();
        for (const NodeId w : consumers) {
            if (t.step_of[w] == step_index) {
                t.ephemeral[j] = 1;
                t.last_use[j] = std::max(t.last_use[j], t.position[w]);
                continue;
            }
            stored = true;
            if (schedule.steps[t.step_of[w]].device != step.device) crosses_device = true;
        }
        if (stored) {
            (crosses_device ? replay.store_link_bytes : replay.store_local_bytes) +=
                t.nodes[v].out_bytes;
        }
    }

    for (std::size_t i = 0; i < size; ++i) {
        double live = 0.0;
        for (std::size_t j = 0; j < i; ++j) {
            if (t.ephemeral[j] != 0 && t.last_use[j] >= i) live += t.nodes[step.nodes[j]].out_bytes;
        }
        replay.peak_residency =
            std::max(replay.peak_residency, external_in + live + t.nodes[step.nodes[i]].out_bytes);
    }
    return replay;
}

}  // namespace

const char* violation_kind_name(ViolationKind kind) {
    switch (kind) {
        case ViolationKind::kMalformed: return "malformed";
        case ViolationKind::kCoverage: return "coverage";
        case ViolationKind::kPrecedence: return "precedence";
        case ViolationKind::kOverlap: return "overlap";
        case ViolationKind::kCapacity: return "capacity";
        case ViolationKind::kBandwidth: return "bandwidth";
    }
    return "unknown";
}

std::vector<Violation> verify_schedule(const Graph& graph, const Schedule& schedule,
                                       double rel_tol) {
    std::vector<Violation> out;
    const auto report = [&out](ViolationKind kind, const std::string& message) {
        out.push_back({kind, message});
    };

    // --- structural sanity -------------------------------------------------
    for (std::size_t s = 0; s < schedule.steps.size(); ++s) {
        const Step& step = schedule.steps[s];
        if (step.device >= schedule.devices.size()) {
            report(ViolationKind::kMalformed, "step " + std::to_string(s) +
                                                  " references device index " +
                                                  std::to_string(step.device) +
                                                  " out of range");
            return out;  // downstream checks would index out of bounds
        }
        if (step.nodes.empty()) {
            report(ViolationKind::kMalformed, step_desc(schedule, s) + " has no operators");
        }
        const double phases[] = {step.start_s, step.load_s, step.compute_s, step.store_s};
        for (const double phase : phases) {
            if (!std::isfinite(phase) || phase < 0.0) {
                report(ViolationKind::kMalformed,
                       step_desc(schedule, s) + " has a negative or non-finite time");
                break;
            }
        }
        for (const NodeId v : step.nodes) {
            if (v >= graph.size()) {
                report(ViolationKind::kMalformed, step_desc(schedule, s) +
                                                      " references node " + std::to_string(v) +
                                                      " outside the graph");
                return out;
            }
        }
    }

    // --- coverage: every operator exactly once -----------------------------
    // Node and device indices are all in range from here on.
    std::vector<std::size_t> step_of(graph.size(), kUnscheduled);
    std::vector<std::size_t> position(graph.size(), 0);
    for (std::size_t s = 0; s < schedule.steps.size(); ++s) {
        const std::vector<NodeId>& members = schedule.steps[s].nodes;
        for (std::size_t i = 0; i < members.size(); ++i) {
            const NodeId v = members[i];
            if (step_of[v] != kUnscheduled) {
                report(ViolationKind::kCoverage,
                       "node " + std::to_string(v) + " (`" + graph.node(v).name +
                           "`) scheduled twice: " + step_desc(schedule, step_of[v]) + " and " +
                           step_desc(schedule, s));
            } else {
                step_of[v] = s;
                position[v] = i;
            }
        }
    }
    for (NodeId v = 0; v < graph.size(); ++v) {
        if (step_of[v] == kUnscheduled) {
            report(ViolationKind::kCoverage,
                   "node " + std::to_string(v) + " (`" + graph.node(v).name + "`) never scheduled");
        }
    }
    if (!out.empty() &&
        std::any_of(out.begin(), out.end(), [](const Violation& violation) {
            return violation.kind == ViolationKind::kCoverage ||
                   violation.kind == ViolationKind::kMalformed;
        })) {
        return out;  // timing/capacity replay needs full, unique coverage
    }

    const std::vector<OpNode>& nodes = graph.nodes();
    const double abs_tol = 1e-12;

    // --- precedence --------------------------------------------------------
    for (NodeId v = 0; v < nodes.size(); ++v) {
        for (const NodeId u : nodes[v].inputs) {
            if (step_of[u] == step_of[v]) {
                // Within a step the listed order must respect the edge.
                if (position[u] > position[v]) {
                    report(ViolationKind::kPrecedence,
                           "edge " + std::to_string(u) + " -> " + std::to_string(v) +
                               " runs backwards inside " + step_desc(schedule, step_of[v]));
                }
                continue;
            }
            const Step& producer = schedule.steps[step_of[u]];
            const Step& consumer = schedule.steps[step_of[v]];
            if (consumer.start_s + abs_tol < producer.end_s()) {
                std::ostringstream os;
                os << "edge " << u << " -> " << v << ": " << step_desc(schedule, step_of[v])
                   << " starts at " << consumer.start_s << " before "
                   << step_desc(schedule, step_of[u]) << " ends at " << producer.end_s();
                report(ViolationKind::kPrecedence, os.str());
            }
        }
    }

    // --- per-device overlap ------------------------------------------------
    // Steps grouped by device (in step order), each group sorted by start.
    std::vector<std::size_t> device_begin(schedule.devices.size() + 1, 0);
    for (const Step& step : schedule.steps) ++device_begin[step.device + 1];
    for (std::size_t d = 1; d < device_begin.size(); ++d) {
        device_begin[d] += device_begin[d - 1];
    }
    std::vector<std::size_t> by_device(schedule.steps.size());
    {
        std::vector<std::size_t> next(device_begin.begin(), device_begin.end() - 1);
        for (std::size_t s = 0; s < schedule.steps.size(); ++s) {
            by_device[next[schedule.steps[s].device]++] = s;
        }
    }
    for (std::size_t d = 0; d < schedule.devices.size(); ++d) {
        std::sort(by_device.begin() + static_cast<std::ptrdiff_t>(device_begin[d]),
                  by_device.begin() + static_cast<std::ptrdiff_t>(device_begin[d + 1]),
                  [&schedule](std::size_t a, std::size_t b) {
                      return schedule.steps[a].start_s < schedule.steps[b].start_s;
                  });
        for (std::size_t i = device_begin[d] + 1; i < device_begin[d + 1]; ++i) {
            const Step& prev = schedule.steps[by_device[i - 1]];
            const Step& cur = schedule.steps[by_device[i]];
            if (cur.start_s + abs_tol < prev.end_s()) {
                std::ostringstream os;
                os << step_desc(schedule, by_device[i]) << " starts at " << cur.start_s
                   << " while " << step_desc(schedule, by_device[i - 1]) << " runs until "
                   << prev.end_s();
                report(ViolationKind::kOverlap, os.str());
            }
        }
    }

    // --- capacity + bandwidth ----------------------------------------------
    const ConsumerIndex consumers = graph.consumers();
    ReplayTables tables{nodes, consumers, step_of, position,
                        std::vector<std::size_t>(graph.size(), kUnscheduled), {}, {}};
    for (std::size_t s = 0; s < schedule.steps.size(); ++s) {
        const Step& step = schedule.steps[s];
        const MemorySpec& mem = schedule.devices[step.device];
        const StepReplay replay = replay_step(tables, schedule, s);

        if (mem.scratchpad_bytes > 0.0) {
            const double peak = replay.peak_residency;
            if (peak > mem.scratchpad_bytes * (1.0 + rel_tol)) {
                std::ostringstream os;
                os << step_desc(schedule, s) << " peak residency " << peak
                   << " B exceeds scratchpad " << mem.scratchpad_bytes << " B";
                report(ViolationKind::kCapacity, os.str());
            }
        }

        const auto check_phase = [&](double link_bytes, double local_bytes, double phase_s,
                                     const char* phase) {
            if (link_bytes <= 0.0 && local_bytes <= 0.0) return;
            if (link_bytes > 0.0 && mem.link_gbps <= 0.0) {
                report(ViolationKind::kBandwidth,
                       step_desc(schedule, s) + std::string(" must ") + phase + " " +
                           std::to_string(link_bytes) +
                           " B across the spill link but its device has no link bandwidth");
                return;
            }
            if (local_bytes > 0.0 && mem.local_gbps <= 0.0) {
                report(ViolationKind::kBandwidth,
                       step_desc(schedule, s) + std::string(" must ") + phase + " " +
                           std::to_string(local_bytes) +
                           " B through its slow tier but the device has no local bandwidth");
                return;
            }
            double min_s = 0.0;
            if (link_bytes > 0.0) {
                min_s += mem.link_latency_s + link_bytes / (mem.link_gbps * kGiga);
            }
            if (local_bytes > 0.0) min_s += local_bytes / (mem.local_gbps * kGiga);
            if (phase_s < min_s * (1.0 - rel_tol) - abs_tol) {
                std::ostringstream os;
                os << step_desc(schedule, s) << " " << phase << " phase is " << phase_s
                   << " s but moving " << link_bytes << " link B + " << local_bytes
                   << " local B needs " << min_s << " s";
                report(ViolationKind::kBandwidth, os.str());
            }
        };
        check_phase(replay.load_link_bytes, replay.load_local_bytes, step.load_s, "load");
        check_phase(replay.store_link_bytes, replay.store_local_bytes, step.store_s, "store");
    }

    return out;
}

std::string format_violations(const std::vector<Violation>& violations) {
    std::ostringstream os;
    for (const Violation& violation : violations) {
        os << "[" << violation_kind_name(violation.kind) << "] " << violation.message << "\n";
    }
    return os.str();
}

}  // namespace mw::graph
