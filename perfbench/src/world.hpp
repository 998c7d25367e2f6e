// One workload's serving world: the paper's testbed, its models deployed,
// the profiling campaign and the Random Forest scheduler fitted on it, plus
// the seeded payload pools and their reference outputs.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "device/registry.hpp"
#include "nn/model.hpp"
#include "sched/dispatcher.hpp"
#include "sched/scheduler.hpp"

namespace pb {

/// Payload rows for one model and the model's batch-of-1 output for each.
struct PayloadPool {
    std::string model;
    std::size_t elems = 0;    ///< floats per sample
    std::size_t out_dim = 0;  ///< floats per output row
    std::vector<float> rows;
    std::vector<float> reference;

    [[nodiscard]] std::span<const float> payload(std::size_t offset, std::size_t samples) const {
        return {rows.data() + offset * elems, samples * elems};
    }
    /// Bitwise comparison of `outputs` against the reference rows.
    [[nodiscard]] bool matches(std::size_t offset, std::size_t samples,
                               std::span<const float> outputs) const;
};

class World {
public:
    explicit World(const std::vector<mw::nn::ModelSpec>& specs);

    World(const World&) = delete;
    World& operator=(const World&) = delete;

    /// Start a phase on quiescent devices: reset every device timeline to
    /// t = 0 and detach any fault injector.
    void reset();

    /// Largest simulated backlog over the devices at server time `now`.
    [[nodiscard]] double backlog_s(double now) const;

    mw::device::DeviceRegistry registry;
    mw::sched::Dispatcher dispatcher{registry};
    std::unique_ptr<mw::sched::OnlineScheduler> scheduler;
    std::vector<std::string> models;
};

/// Seeded payloads for every model of `world`, with reference outputs from
/// Model::forward at batch 1.
[[nodiscard]] std::vector<PayloadPool> make_pools(const World& world, std::size_t rows,
                                                  std::uint64_t seed);

}  // namespace pb
