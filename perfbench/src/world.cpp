#include "world.hpp"

#include <algorithm>
#include <cstring>

#include "common/rng.hpp"
#include "ml/random_forest.hpp"
#include "sched/scheduler_dataset.hpp"

namespace pb {

using namespace mw;

bool PayloadPool::matches(std::size_t offset, std::size_t samples,
                          std::span<const float> outputs) const {
    if (outputs.size() != samples * out_dim) return false;
    return std::memcmp(outputs.data(), reference.data() + offset * out_dim,
                       outputs.size_bytes()) == 0;
}

World::World(const std::vector<nn::ModelSpec>& specs)
    : registry(device::DeviceRegistry::standard_testbed()) {
    for (const nn::ModelSpec& spec : specs) {
        dispatcher.register_model(spec, 7);
        models.push_back(spec.name);
    }
    dispatcher.deploy_all();
    // The paper's profiling campaign: every model on every device over the
    // default batch grid.
    const auto dataset = sched::build_scheduler_dataset(registry, specs);
    sched::DevicePredictor predictor(
        std::make_unique<ml::RandomForest>(ml::ForestConfig{.n_estimators = 20, .seed = 2}),
        dataset.device_names);
    predictor.fit(dataset);
    scheduler = std::make_unique<sched::OnlineScheduler>(
        dispatcher, std::move(predictor), dataset,
        sched::SchedulerConfig{.explore_probability = 0.0});
    reset();
}

void World::reset() {
    for (device::Device* dev : registry.devices()) dev->reset_timeline();
    dispatcher.set_fault_injector(nullptr);
}

double World::backlog_s(double now) const {
    double worst = 0.0;
    for (const device::Device* dev : registry.devices()) {
        worst = std::max(worst, dev->busy_until() - now);
    }
    return worst;
}

std::vector<PayloadPool> make_pools(const World& world, std::size_t rows, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<PayloadPool> pools;
    for (const std::string& name : world.models) {
        const nn::Model& model = world.dispatcher.model(name);
        PayloadPool pool;
        pool.model = name;
        pool.elems = model.input_shape(1).numel();
        pool.rows.resize(rows * pool.elems);
        for (float& v : pool.rows) v = static_cast<float>(rng.uniform());
        Tensor one(model.input_shape(1));
        for (std::size_t r = 0; r < rows; ++r) {
            std::copy_n(pool.rows.data() + r * pool.elems, pool.elems, one.data());
            const Tensor out = model.forward(one);
            if (r == 0) {
                pool.out_dim = out.numel();
                pool.reference.resize(rows * pool.out_dim);
            }
            std::copy_n(out.data(), pool.out_dim, pool.reference.data() + r * pool.out_dim);
        }
        pools.push_back(std::move(pool));
    }
    return pools;
}

}  // namespace pb
