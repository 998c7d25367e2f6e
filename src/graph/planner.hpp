// GraphPlanner: memory-hierarchy-aware placement + fusion co-optimization.
//
// The planner partitions an operator DAG into fusible chains (maximal
// single-producer/single-consumer runs), then list-schedules chain by chain:
// every chain is priced on every device — splitting it into steps wherever
// the device's scratchpad cannot hold the fused working set — and committed
// to the device that minimises the objective (finish time or energy). Fused
// intermediates are ephemeral; every cut edge pays the spill link of the
// devices involved (see schedule.hpp for the execution contract the
// independent verifier replays).
//
// The paper's whole-model placement is available as plan_monolithic(): the
// entire graph on one device, split only where the scratchpad forces it —
// the baseline the DAG bench compares against.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/sync.hpp"
#include "device/params.hpp"
#include "graph/dag.hpp"
#include "graph/schedule.hpp"

namespace mw::device {
class Device;
}

namespace mw::graph {

/// What the planner optimises. sched::Policy maps onto this in
/// OnlineScheduler::plan_graph (throughput/latency -> kMakespan).
enum class Objective { kMakespan, kEnergy };

/// One device as the planner sees it: full analytic parameters plus the
/// moment it becomes free and its DVFS clock ratio at that moment.
struct PlannerDevice {
    device::DeviceParams params;
    double free_at = 0.0;
    double clock_ratio = 1.0;
};

/// Derive the two-level memory spec from device parameters: the spill link
/// is PCIe for discrete devices and (spill_bandwidth_gbps, falling back to
/// mem_bandwidth_gbps) for integrated ones; scratchpad 0 = unlimited.
MemorySpec memory_spec(const device::DeviceParams& params);

/// Snapshot a live device (busy_until as free_at, warm state as clock).
PlannerDevice snapshot_device(const device::Device& device, double now);

class GraphPlanner {
public:
    /// Plans the cache keeps before evicting the least recently used one.
    static constexpr std::size_t kPlanCacheCapacity = 4096;

    GraphPlanner() = default;

    GraphPlanner(const GraphPlanner&) = delete;
    GraphPlanner& operator=(const GraphPlanner&) = delete;

    /// DAG-aware plan: fusion chains placed per-chain on the best device.
    /// Stateless and thread-safe. Throws InvalidArgument when some operator
    /// fits no device's scratchpad (tiling is future work) or no devices
    /// are given.
    [[nodiscard]] Schedule plan(const Graph& graph, const std::vector<PlannerDevice>& devices,
                                Objective objective) const;

    /// Paper-style baseline: the whole graph on the single best device.
    [[nodiscard]] Schedule plan_monolithic(const Graph& graph,
                                           const std::vector<PlannerDevice>& devices,
                                           Objective objective) const;

    /// Cached plan for serving: the grouping/placement is memoised under a
    /// canonical key (graph fingerprint, objective, device memory shapes)
    /// and re-timed against the devices' current free_at. The cache holds
    /// at most kPlanCacheCapacity plans and evicts the least recently used.
    /// The cache mutex holds rank kGraphPlanner — BELOW the whole
    /// single-node scheduling stack, so planning may wrap
    /// scheduler/registry/device reads but no component deeper in the
    /// stack may call back into the planner.
    [[nodiscard]] std::shared_ptr<const Schedule> plan_cached(
        const Graph& graph, const std::vector<PlannerDevice>& devices, Objective objective,
        Schedule* instantiated);

    [[nodiscard]] std::size_t cache_size() const;
    [[nodiscard]] std::size_t cache_hits() const;

    /// Re-time a cached (canonical, free_at = 0) schedule against the
    /// devices' actual availability, preserving grouping and placement.
    [[nodiscard]] Schedule instantiate(const Graph& graph, const Schedule& canonical,
                                       const std::vector<PlannerDevice>& devices) const;

private:
    using CacheEntry = std::pair<std::uint64_t, std::shared_ptr<const Schedule>>;

    mutable Mutex cache_mutex_{LockRank::kGraphPlanner};
    /// Most recently used first; cache_index_ maps a key to its entry.
    std::list<CacheEntry> cache_lru_ MW_GUARDED_BY(cache_mutex_);
    std::unordered_map<std::uint64_t, std::list<CacheEntry>::iterator> cache_index_
        MW_GUARDED_BY(cache_mutex_);
    std::size_t cache_hits_ MW_GUARDED_BY(cache_mutex_) = 0;
};

}  // namespace mw::graph
