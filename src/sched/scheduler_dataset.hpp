// The labelled dataset the scheduler learns from (§V-B "Data Augmentation
// and Preparation"): one row per (policy, architecture, sample size, GPU
// state, repeat), labelled with the measured-best device.
#pragma once

#include <string>
#include <vector>

#include "device/registry.hpp"
#include "ml/dataset.hpp"
#include "nn/model.hpp"
#include "sched/measurement_harness.hpp"
#include "sched/policy.hpp"

namespace mw::sched {

/// Scheduler training data: an ml::MlDataset whose labels index
/// `device_names`, plus per-row bookkeeping for holdout-by-architecture.
struct SchedulerDataset {
    ml::MlDataset data;
    std::vector<std::string> device_names;      ///< label -> device
    std::vector<std::string> row_model;         ///< model of each row
    std::vector<Policy> row_policy;
    std::vector<std::size_t> row_batch;
    std::vector<GpuState> row_state;

    [[nodiscard]] int label_of(const std::string& device_name) const;
    [[nodiscard]] const std::string& device_of(int label) const;

    /// Rows whose model name passes/fails the predicate — used to hold out
    /// whole architectures for the Fig. 6 unseen-model evaluation. The pair
    /// is (kept, held_out).
    [[nodiscard]] std::pair<SchedulerDataset, SchedulerDataset> split_by_model(
        const std::vector<std::string>& held_out_models) const;

    /// Class share per device (the paper reports a 30/40/30 imbalance).
    [[nodiscard]] std::vector<double> class_shares() const;
};

/// Configuration of the measurement campaign behind the dataset.
struct DatasetBuilderConfig {
    std::vector<std::size_t> batches;      ///< empty -> paper grid 2..256K
    std::vector<Policy> policies{Policy::kMaxThroughput, Policy::kMinLatency,
                                 Policy::kMinEnergy};
    std::size_t repeats = 1;               ///< measurement repetitions per point
    /// Weight seed of the models built for specs that no device holds yet;
    /// a model already deployed everywhere is profiled as deployed.
    std::uint64_t model_seed = 7;
};

/// Measure every architecture on every device and label the winners.
/// A spec whose model every device already holds is profiled as deployed
/// (its weights and instance untouched); a spec no device holds is built
/// with `model_seed` and loaded onto every device as a side effect. A spec
/// deployed on only some devices is rejected.
SchedulerDataset build_scheduler_dataset(device::DeviceRegistry& registry,
                                         const std::vector<nn::ModelSpec>& specs,
                                         const DatasetBuilderConfig& config = {});

}  // namespace mw::sched
