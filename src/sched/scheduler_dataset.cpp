#include "sched/scheduler_dataset.hpp"

#include <algorithm>
#include <map>

#include "common/error.hpp"
#include "nn/model_builder.hpp"
#include "sched/features.hpp"

namespace mw::sched {

int SchedulerDataset::label_of(const std::string& device_name) const {
    for (std::size_t i = 0; i < device_names.size(); ++i) {
        if (device_names[i] == device_name) return static_cast<int>(i);
    }
    throw InvalidArgument("unknown device label: " + device_name);
}

const std::string& SchedulerDataset::device_of(int label) const {
    MW_CHECK(label >= 0 && static_cast<std::size_t>(label) < device_names.size(),
             "label out of range");
    return device_names[label];
}

std::pair<SchedulerDataset, SchedulerDataset> SchedulerDataset::split_by_model(
    const std::vector<std::string>& held_out_models) const {
    auto is_held = [&](const std::string& name) {
        return std::find(held_out_models.begin(), held_out_models.end(), name) !=
               held_out_models.end();
    };
    std::pair<SchedulerDataset, SchedulerDataset> split;
    for (SchedulerDataset* part : {&split.first, &split.second}) {
        part->data.features = data.features;
        part->data.classes = data.classes;
        part->device_names = device_names;
    }
    for (std::size_t i = 0; i < data.size(); ++i) {
        SchedulerDataset& dst = is_held(row_model[i]) ? split.second : split.first;
        dst.data.add(data.row(i), data.y[i]);
        dst.row_model.push_back(row_model[i]);
        dst.row_policy.push_back(row_policy[i]);
        dst.row_batch.push_back(row_batch[i]);
        dst.row_state.push_back(row_state[i]);
    }
    return split;
}

std::vector<double> SchedulerDataset::class_shares() const {
    const auto counts = data.class_counts();
    std::vector<double> shares(counts.size());
    for (std::size_t c = 0; c < counts.size(); ++c) {
        shares[c] = static_cast<double>(counts[c]) / static_cast<double>(data.size());
    }
    return shares;
}

SchedulerDataset build_scheduler_dataset(device::DeviceRegistry& registry,
                                         const std::vector<nn::ModelSpec>& specs,
                                         const DatasetBuilderConfig& config) {
    MW_CHECK(!specs.empty(), "no architectures given");
    MW_CHECK(registry.size() >= 2, "need at least two devices to schedule between");

    SchedulerDataset ds;
    ds.device_names = registry.names();
    ds.data.features = kFeatureCount;
    ds.data.classes = ds.device_names.size();

    // Profile what is deployed: a model every device already holds is
    // measured as is. Only a spec no device holds is built and loaded.
    std::map<std::string, nn::ModelDesc> descs;
    const std::vector<device::Device*> devices = registry.devices();
    for (const auto& spec : specs) {
        const auto holders = std::count_if(devices.begin(), devices.end(),
                                           [&](const device::Device* dev) {
                                               return dev->has_model(spec.name);
                                           });
        if (holders == 0) {
            auto model = std::make_shared<nn::Model>(nn::build_model(spec, config.model_seed));
            descs[spec.name] = model->desc();
            registry.load_model_everywhere(model);
            continue;
        }
        MW_CHECK(static_cast<std::size_t>(holders) == devices.size(),
                 "model `" + spec.name + "` is deployed on only some devices");
        descs[spec.name] = devices.front()->model(spec.name).desc();
    }

    const std::vector<std::size_t> batches =
        config.batches.empty() ? MeasurementHarness::paper_batch_sizes() : config.batches;

    MeasurementHarness harness(registry);
    for (const auto& spec : specs) {
        for (const std::size_t batch : batches) {
            for (const GpuState state : {GpuState::kIdle, GpuState::kWarm}) {
                for (std::size_t rep = 0; rep < config.repeats; ++rep) {
                    // Fresh measurements on every device for this grid point.
                    std::vector<device::Measurement> ms;
                    ms.reserve(registry.size());
                    for (const auto& dev : ds.device_names) {
                        ms.push_back(harness.measure(spec.name, dev, batch, state));
                    }
                    for (const Policy policy : config.policies) {
                        double best_score = -1e300;
                        int best_label = 0;
                        for (std::size_t d = 0; d < ms.size(); ++d) {
                            const double score = policy_score(policy, ms[d]);
                            if (score > best_score) {
                                best_score = score;
                                best_label = static_cast<int>(d);
                            }
                        }
                        ds.data.add(extract_features(policy, descs.at(spec.name), batch,
                                                     state == GpuState::kWarm),
                                    best_label);
                        ds.row_model.push_back(spec.name);
                        ds.row_policy.push_back(policy);
                        ds.row_batch.push_back(batch);
                        ds.row_state.push_back(state);
                    }
                }
            }
        }
    }
    // Profiling is an offline campaign: hand the platform back quiescent so
    // online serving does not queue behind the measurement timeline.
    for (device::Device* dev : devices) dev->reset_timeline();
    return ds;
}

}  // namespace mw::sched
