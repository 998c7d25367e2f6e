#include "graph/planner.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <span>
#include <utility>

#include "common/error.hpp"
#include "device/device.hpp"
#include "device/exec_model.hpp"

namespace mw::graph {
namespace {

constexpr double kGiga = 1e9;
constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// Placement sentinel for nodes whose chain has not been committed yet.
constexpr std::size_t kNoDevice = static_cast<std::size_t>(-1);

/// A set of node ids over a dense stamp array: a node is a member while its
/// stamp equals the current generation, so clear() is one increment.
class NodeSet {
public:
    explicit NodeSet(std::size_t nodes) : stamp_(nodes, 0) {}

    void clear() { ++generation_; }
    [[nodiscard]] bool contains(NodeId v) const { return stamp_[v] == generation_; }
    /// True when `v` was not yet a member.
    bool insert(NodeId v) {
        if (stamp_[v] == generation_) return false;
        stamp_[v] = generation_;
        return true;
    }

private:
    std::vector<std::uint64_t> stamp_;
    std::uint64_t generation_ = 1;
};

/// Everything one plan()/plan_monolithic() call indexes by node id, built
/// once per call.
struct PlanScratch {
    explicit PlanScratch(const Graph& g)
        : nodes(g.nodes()),
          consumers(g.consumers()),
          members(g.size()),
          loaded(g.size()),
          in_sequence(g.size()),
          produced(g.size()),
          position(g.size(), 0),
          local_done(g.size(), 0.0) {}

    const std::vector<OpNode>& nodes;
    const ConsumerIndex consumers;
    NodeSet members;                    ///< the group being priced or flushed
    NodeSet loaded;                     ///< distinct cut inputs already counted
    NodeSet in_sequence;                ///< the sequence being simulated
    NodeSet produced;                   ///< nodes finished within that sequence
    std::vector<std::size_t> position;  ///< in-group position, valid for `members`
    std::vector<double> local_done;     ///< finish time, valid for `produced`
    std::vector<std::size_t> last_use;  ///< per group position
    std::vector<char> ephemeral;        ///< per group position
    nn::ModelCost cost;                 ///< the step being priced
};

/// Peak fast-memory residency of a candidate fused group under the
/// execution contract (schedule.hpp). This is the planner's own accounting;
/// the verifier recomputes the same quantity from scratch in verify.cpp.
double group_peak_residency(PlanScratch& s, std::span<const NodeId> group) {
    s.members.clear();
    for (std::size_t i = 0; i < group.size(); ++i) {
        s.members.insert(group[i]);
        s.position[group[i]] = i;
    }

    double external_in = 0.0;
    s.loaded.clear();
    for (const NodeId v : group) {
        external_in += s.nodes[v].external_in_bytes;
        for (const NodeId u : s.nodes[v].inputs) {
            if (!s.members.contains(u) && s.loaded.insert(u)) external_in += s.nodes[u].out_bytes;
        }
    }

    s.last_use.assign(group.size(), 0);
    s.ephemeral.assign(group.size(), 0);
    for (std::size_t j = 0; j < group.size(); ++j) {
        for (const NodeId w : s.consumers[group[j]]) {
            if (s.members.contains(w)) {
                s.ephemeral[j] = 1;
                s.last_use[j] = std::max(s.last_use[j], s.position[w]);
            }
        }
    }

    double peak = 0.0;
    for (std::size_t i = 0; i < group.size(); ++i) {
        double live = 0.0;
        for (std::size_t j = 0; j < i; ++j) {
            if (s.ephemeral[j] != 0 && s.last_use[j] >= i) live += s.nodes[group[j]].out_bytes;
        }
        peak = std::max(peak, external_in + live + s.nodes[group[i]].out_bytes);
    }
    return peak;
}

/// Maximal single-producer/single-consumer runs, in topological head order.
/// Chains are the planner's fusion candidates — branches and joins always
/// cut, so every chain is a linear pipeline of operators. Chain c is
/// order[begin[c], begin[c + 1]).
struct Chains {
    std::vector<NodeId> order;
    std::vector<std::size_t> begin;

    [[nodiscard]] std::size_t size() const { return begin.size() - 1; }
    [[nodiscard]] std::span<const NodeId> operator[](std::size_t c) const {
        return {order.data() + begin[c], order.data() + begin[c + 1]};
    }
};

Chains build_chains(const PlanScratch& s) {
    Chains chains;
    chains.order.reserve(s.nodes.size());
    chains.begin.push_back(0);
    std::vector<char> chained(s.nodes.size(), 0);
    for (NodeId v = 0; v < s.nodes.size(); ++v) {
        if (chained[v] != 0) continue;
        chains.order.push_back(v);
        chained[v] = 1;
        NodeId cur = v;
        while (s.consumers[cur].size() == 1) {
            const NodeId w = s.consumers[cur][0];
            if (s.nodes[w].inputs.size() != 1 || chained[w] != 0) break;
            chains.order.push_back(w);
            chained[w] = 1;
            cur = w;
        }
        chains.begin.push_back(chains.order.size());
    }
    return chains;
}

/// One simulated sequence. Steps are kept without their node lists:
/// steps[i] covers sequence[group_begin[i], group_begin[i + 1]) (the last
/// one runs to the sequence end); only the winning device's steps get their
/// nodes filled in.
struct SimResult {
    std::vector<Step> steps;
    std::vector<std::size_t> group_begin;
    double finish = kInfinity;
    double energy = kInfinity;
    double clock_end = 1.0;
    bool feasible = false;

    void reset(double clock) {
        steps.clear();
        group_begin.clear();
        finish = kInfinity;
        energy = kInfinity;
        clock_end = clock;
        feasible = false;
    }

    /// Append the steps, with their nodes, to `out`.
    void emit(std::span<const NodeId> sequence, std::vector<Step>& out) const {
        for (std::size_t i = 0; i < steps.size(); ++i) {
            const std::size_t end = i + 1 < steps.size() ? group_begin[i + 1] : sequence.size();
            out.push_back(steps[i]);
            out.back().nodes.assign(sequence.begin() + static_cast<std::ptrdiff_t>(group_begin[i]),
                                    sequence.begin() + static_cast<std::ptrdiff_t>(end));
        }
    }
};

/// Simulate one topologically ordered node sequence on one device: pack
/// nodes greedily into fused steps (cut wherever the scratchpad cannot hold
/// the grown working set), price each step through the analytic execution
/// model, and thread the DVFS clock through the steps.
///
/// Traffic pricing follows the execution contract: cut tensors whose
/// producer lives on this device (earlier in `sequence`, or committed to
/// `device_index` in `node_device`) move at the local slow-tier rate; cut
/// tensors stored for consumers NOT all known to be on this device pay the
/// spill link. A store whose off-sequence consumers are not placed yet may
/// still turn out local, so it is priced at the slower of the two tiers
/// (plus the link latency, in case it crosses after all), which keeps every
/// planned phase at or above the verifier's recomputed minimum.
void simulate_sequence(PlanScratch& s, std::span<const NodeId> sequence,
                       const PlannerDevice& device, std::size_t device_index,
                       const MemorySpec& mem, const std::vector<double>& node_done,
                       const std::vector<std::size_t>& node_device, SimResult& sim) {
    sim.reset(device.clock_ratio);
    double cursor = device.free_at;
    double clock = device.clock_ratio;
    double energy = 0.0;
    s.produced.clear();  // tensors produced within `sequence`
    s.in_sequence.clear();
    for (const NodeId v : sequence) s.in_sequence.insert(v);

    const auto tensor_ready = [&](NodeId u) {
        return s.produced.contains(u) ? s.local_done[u] : node_done[u];
    };

    const auto phase_time = [&mem](double link_bytes, double local_bytes) {
        double t = 0.0;
        if (link_bytes > 0.0) t += mem.link_latency_s + link_bytes / (mem.link_gbps * kGiga);
        if (local_bytes > 0.0) t += local_bytes / (mem.local_gbps * kGiga);
        return t;
    };

    // Prices sequence[begin, end) as one step.
    const auto flush = [&](std::size_t begin, std::size_t end) -> bool {
        if (begin == end) return true;
        const std::span<const NodeId> group = sequence.subspan(begin, end - begin);
        s.members.clear();
        for (const NodeId v : group) s.members.insert(v);

        double load_link = 0.0;
        double load_local = 0.0;
        double ready = 0.0;
        s.loaded.clear();
        for (const NodeId v : group) {
            load_link += s.nodes[v].external_in_bytes;  // graph inputs come from the host
            for (const NodeId u : s.nodes[v].inputs) {
                if (s.members.contains(u)) continue;
                ready = std::max(ready, tensor_ready(u));
                if (s.loaded.insert(u)) {
                    const bool on_device =
                        s.produced.contains(u) || node_device[u] == device_index;
                    (on_device ? load_local : load_link) += s.nodes[u].out_bytes;
                }
            }
        }
        double store_link = 0.0;
        double store_local = 0.0;
        double store_unplaced = 0.0;  // of store_link: no consumer placed elsewhere yet
        for (const NodeId v : group) {
            const std::span<const NodeId> consumers = s.consumers[v];
            bool stored = consumers.empty();  // graph output -> back to the host
            bool all_local = !consumers.empty();
            bool crosses = consumers.empty();
            for (const NodeId w : consumers) {
                if (s.members.contains(w)) continue;
                stored = true;
                if (!s.in_sequence.contains(w) && node_device[w] != device_index) {
                    all_local = false;
                    crosses = crosses || node_device[w] != kNoDevice;
                }
            }
            if (!stored) continue;
            (all_local ? store_local : store_link) += s.nodes[v].out_bytes;
            if (!all_local && !crosses) store_unplaced += s.nodes[v].out_bytes;
        }
        if ((load_link > 0.0 || store_link > 0.0) && mem.link_gbps <= 0.0) return false;
        if ((load_local > 0.0 || store_local > 0.0) && mem.local_gbps <= 0.0) return false;

        Step step;
        step.device = device_index;
        step.start_s = std::max(cursor, ready);
        step.load_s = phase_time(load_link, load_local);
        step.store_s = phase_time(store_link, store_local);
        if (store_unplaced > 0.0 && mem.local_gbps < mem.link_gbps) {
            // The link is the faster tier here: unplaced consumers that land
            // on this device would make those stores slower, local ones.
            step.store_s = mem.link_latency_s +
                           (store_link - store_unplaced) / (mem.link_gbps * kGiga) +
                           (store_local + store_unplaced) / (mem.local_gbps * kGiga);
        }

        s.cost.total = nn::LayerCost{};
        s.cost.per_layer.clear();
        for (const NodeId v : group) {
            s.cost.per_layer.push_back(s.nodes[v].cost);
            s.cost.total += s.nodes[v].cost;
        }
        const device::ExecBreakdown breakdown =
            device::estimate_execution(device.params, s.cost, 0.0, 0.0, clock);
        step.compute_s = breakdown.total_s();
        clock = breakdown.clock_end;
        step.energy_j = breakdown.energy_j() +
                        (step.load_s + step.store_s) * device.params.idle_power_w;

        cursor = step.end_s();
        energy += step.energy_j;
        for (const NodeId v : group) {
            s.produced.insert(v);
            s.local_done[v] = cursor;
        }
        sim.steps.push_back(step);
        sim.group_begin.push_back(begin);
        return true;
    };

    std::size_t begin = 0;  // the open group is sequence[begin, i)
    for (std::size_t i = 0; i < sequence.size(); ++i) {
        if (mem.scratchpad_bytes > 0.0) {
            if (group_peak_residency(s, sequence.subspan(i, 1)) > mem.scratchpad_bytes) {
                return;  // this operator fits no group on this device
            }
            if (i > begin && group_peak_residency(s, sequence.subspan(begin, i + 1 - begin)) >
                                 mem.scratchpad_bytes) {
                if (!flush(begin, i)) return;
                begin = i;
            }
        }
    }
    if (!flush(begin, sequence.size())) return;

    sim.finish = cursor;
    sim.energy = energy;
    sim.clock_end = clock;
    sim.feasible = true;
}

double objective_score(Objective objective, const SimResult& sim) {
    return objective == Objective::kEnergy ? sim.energy : sim.finish;
}

std::uint64_t cache_key(const Graph& graph, const std::vector<PlannerDevice>& devices,
                        Objective objective) {
    std::uint64_t h = graph.fingerprint();
    h = hash_word(h, static_cast<std::uint64_t>(objective));
    h = hash_word(h, devices.size());
    for (const PlannerDevice& device : devices) {
        const device::DeviceParams& p = device.params;
        h = hash_bytes(h, p.name);
        const MemorySpec mem = memory_spec(p);
        for (const double v : {mem.scratchpad_bytes, mem.link_gbps, mem.link_latency_s,
                               mem.local_gbps, p.peak_gflops, p.mem_bandwidth_gbps}) {
            h = hash_word(h, std::bit_cast<std::uint64_t>(v));
        }
    }
    return h;
}

}  // namespace

MemorySpec memory_spec(const device::DeviceParams& params) {
    MemorySpec mem;
    mem.name = params.name;
    mem.scratchpad_bytes = params.scratchpad_bytes;
    mem.local_gbps = params.mem_bandwidth_gbps;
    if (params.over_pcie) {
        mem.link_gbps = params.pcie_bandwidth_gbps;
        mem.link_latency_s = params.pcie_latency_s;
    } else {
        mem.link_gbps = params.spill_bandwidth_gbps > 0.0 ? params.spill_bandwidth_gbps
                                                          : params.mem_bandwidth_gbps;
    }
    return mem;
}

PlannerDevice snapshot_device(const device::Device& device, double now) {
    PlannerDevice d;
    d.params = device.params();
    const double throttle = device.throttle();
    if (throttle > 1.0) {
        d.params.peak_gflops /= throttle;
        d.params.mem_bandwidth_gbps /= throttle;
        if (d.params.spill_bandwidth_gbps > 0.0) d.params.spill_bandwidth_gbps /= throttle;
        if (d.params.over_pcie) d.params.pcie_bandwidth_gbps /= throttle;
    }
    d.free_at = std::max(now, device.busy_until());
    d.clock_ratio = device.clock_ratio_at(d.free_at);
    return d;
}

Schedule GraphPlanner::plan(const Graph& graph, const std::vector<PlannerDevice>& devices,
                            Objective objective) const {
    MW_CHECK(!devices.empty(), "plan() needs at least one device");
    PlanScratch scratch(graph);
    const Chains chains = build_chains(scratch);

    Schedule schedule;
    schedule.graph_name = graph.name();
    for (const PlannerDevice& device : devices) {
        schedule.devices.push_back(memory_spec(device.params));
    }

    std::vector<double> node_done(graph.size(), 0.0);
    std::vector<std::size_t> node_device(graph.size(), kNoDevice);
    std::vector<double> cursor(devices.size());
    std::vector<double> clock(devices.size());
    for (std::size_t d = 0; d < devices.size(); ++d) {
        cursor[d] = devices[d].free_at;
        clock[d] = devices[d].clock_ratio;
    }

    SimResult best;
    SimResult sim;
    for (std::size_t c = 0; c < chains.size(); ++c) {
        const std::span<const NodeId> chain = chains[c];
        best.reset(1.0);
        std::size_t best_device = 0;
        for (std::size_t d = 0; d < devices.size(); ++d) {
            PlannerDevice state = devices[d];
            state.free_at = cursor[d];
            state.clock_ratio = clock[d];
            simulate_sequence(scratch, chain, state, d, schedule.devices[d], node_done,
                              node_device, sim);
            if (!sim.feasible) continue;
            if (!best.feasible ||
                objective_score(objective, sim) < objective_score(objective, best) ||
                (objective_score(objective, sim) == objective_score(objective, best) &&
                 sim.finish < best.finish)) {
                std::swap(best, sim);
                best_device = d;
            }
        }
        if (!best.feasible) {
            throw InvalidArgument("graph `" + graph.name() + "`: chain starting at node " +
                                  std::to_string(chain.front()) + " (`" +
                                  graph.node(chain.front()).name +
                                  "`) fits no device's scratchpad; operator tiling is not "
                                  "supported");
        }
        cursor[best_device] = best.finish;
        clock[best_device] = best.clock_end;
        for (const NodeId v : chain) node_device[v] = best_device;
        const std::size_t first = schedule.steps.size();
        best.emit(chain, schedule.steps);
        for (std::size_t i = first; i < schedule.steps.size(); ++i) {
            for (const NodeId v : schedule.steps[i].nodes) node_done[v] = schedule.steps[i].end_s();
        }
    }
    return schedule;
}

Schedule GraphPlanner::plan_monolithic(const Graph& graph,
                                       const std::vector<PlannerDevice>& devices,
                                       Objective objective) const {
    MW_CHECK(!devices.empty(), "plan_monolithic() needs at least one device");
    PlanScratch scratch(graph);
    std::vector<NodeId> all(graph.size());
    for (NodeId v = 0; v < graph.size(); ++v) all[v] = v;
    const std::vector<double> node_done(graph.size(), 0.0);
    // Every node is in the one sequence, so in-device traffic is classified
    // by sequence membership; no committed placements exist.
    const std::vector<std::size_t> node_device(graph.size(), kNoDevice);

    Schedule schedule;
    schedule.graph_name = graph.name();
    for (const PlannerDevice& device : devices) {
        schedule.devices.push_back(memory_spec(device.params));
    }

    SimResult best;
    SimResult sim;
    for (std::size_t d = 0; d < devices.size(); ++d) {
        simulate_sequence(scratch, all, devices[d], d, schedule.devices[d], node_done,
                          node_device, sim);
        if (!sim.feasible) continue;
        if (!best.feasible ||
            objective_score(objective, sim) < objective_score(objective, best)) {
            std::swap(best, sim);
        }
    }
    MW_CHECK(best.feasible, "graph `" + graph.name() +
                                "`: no single device can host the whole graph (monolithic "
                                "placement infeasible)");
    best.emit(all, schedule.steps);
    return schedule;
}

Schedule GraphPlanner::instantiate(const Graph& graph, const Schedule& canonical,
                                   const std::vector<PlannerDevice>& devices) const {
    MW_CHECK(canonical.devices.size() == devices.size(),
             "instantiate(): device list does not match the cached schedule");
    for (std::size_t d = 0; d < devices.size(); ++d) {
        MW_CHECK(canonical.devices[d].name == devices[d].params.name,
                 "instantiate(): device order does not match the cached schedule");
    }

    Schedule out = canonical;
    std::vector<double> cursor(devices.size());
    for (std::size_t d = 0; d < devices.size(); ++d) cursor[d] = devices[d].free_at;

    std::vector<std::size_t> step_of(graph.size(), 0);
    for (std::size_t s = 0; s < out.steps.size(); ++s) {
        for (const NodeId v : out.steps[s].nodes) {
            MW_CHECK(v < graph.size(), "instantiate(): cached step references a node outside "
                                       "the graph");
            step_of[v] = s;
        }
    }

    // Planned schedules cover every node exactly once, so a producer sits in
    // step s exactly when step_of says so.
    std::vector<double> step_end(out.steps.size(), 0.0);
    for (std::size_t s = 0; s < out.steps.size(); ++s) {
        Step& step = out.steps[s];
        double ready = 0.0;
        for (const NodeId v : step.nodes) {
            for (const NodeId u : graph.nodes()[v].inputs) {
                if (step_of[u] != s) ready = std::max(ready, step_end[step_of[u]]);
            }
        }
        step.start_s = std::max(cursor[step.device], ready);
        step_end[s] = step.end_s();
        cursor[step.device] = step_end[s];
    }
    return out;
}

std::shared_ptr<const Schedule> GraphPlanner::plan_cached(
    const Graph& graph, const std::vector<PlannerDevice>& devices, Objective objective,
    Schedule* instantiated) {
    const std::uint64_t key = cache_key(graph, devices, objective);
    std::shared_ptr<const Schedule> canonical;
    {
        const MutexLock lock(cache_mutex_);
        const auto it = cache_index_.find(key);
        if (it != cache_index_.end()) {
            ++cache_hits_;
            cache_lru_.splice(cache_lru_.begin(), cache_lru_, it->second);
            canonical = it->second->second;
        }
    }
    if (!canonical) {
        std::vector<PlannerDevice> at_rest = devices;
        for (PlannerDevice& device : at_rest) {
            device.free_at = 0.0;
            device.clock_ratio = 1.0;
        }
        canonical = std::make_shared<const Schedule>(plan(graph, at_rest, objective));
        const MutexLock lock(cache_mutex_);
        if (cache_index_.find(key) == cache_index_.end()) {  // a racing miss may have won
            if (cache_lru_.size() == kPlanCacheCapacity) {
                cache_index_.erase(cache_lru_.back().first);
                cache_lru_.pop_back();
            }
            cache_lru_.emplace_front(key, canonical);
            cache_index_.emplace(key, cache_lru_.begin());
        }
    }
    if (instantiated != nullptr) *instantiated = instantiate(graph, *canonical, devices);
    return canonical;
}

std::size_t GraphPlanner::cache_size() const {
    const MutexLock lock(cache_mutex_);
    return cache_lru_.size();
}

std::size_t GraphPlanner::cache_hits() const {
    const MutexLock lock(cache_mutex_);
    return cache_hits_;
}

}  // namespace mw::graph
