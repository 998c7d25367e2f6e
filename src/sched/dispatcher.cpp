#include "sched/dispatcher.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "fault/fault.hpp"
#include "fault/health.hpp"
#include "nn/model_builder.hpp"
#include "obs/trace.hpp"
#include "nn/serialize.hpp"
#include "nn/weights.hpp"

namespace mw::sched {

Dispatcher::Dispatcher(device::DeviceRegistry& registry) : registry_(&registry) {}

nn::Model& Dispatcher::register_model(nn::ModelSpec spec, std::uint64_t weight_seed) {
    auto model = std::make_shared<nn::Model>(nn::build_model(std::move(spec), weight_seed));
    const std::string name = model->name();
    const WriterLock lock(models_mutex_);
    MW_CHECK(models_.count(name) == 0, "model already registered: " + name);
    models_[name] = model;
    return *models_[name];
}

void Dispatcher::register_model(std::shared_ptr<nn::Model> model) {
    MW_CHECK(model != nullptr, "null model");
    const std::string name = model->name();
    const WriterLock lock(models_mutex_);
    MW_CHECK(models_.count(name) == 0, "model already registered: " + name);
    models_[name] = std::move(model);
}

std::string Dispatcher::register_from_file(const std::string& path) {
    auto model = std::make_shared<nn::Model>(nn::load_model(path));
    const std::string name = model->name();
    register_model(std::move(model));
    return name;
}

void Dispatcher::load_weights_from(const std::string& model_name, const std::string& path) {
    nn::load_weights(*find_model(model_name), path);
}

void Dispatcher::deploy(const std::string& model_name) {
    registry_->load_model_everywhere(find_model(model_name));
}

void Dispatcher::deploy_all() {
    std::vector<std::shared_ptr<nn::Model>> snapshot;
    {
        const ReaderLock lock(models_mutex_);
        snapshot.reserve(models_.size());
        for (const auto& [name, model] : models_) snapshot.push_back(model);
    }
    // Device locks are taken outside our own lock to keep the lock graph flat.
    for (const auto& model : snapshot) registry_->load_model_everywhere(model);
}

bool Dispatcher::unregister_model(const std::string& model_name) {
    {
        const WriterLock lock(models_mutex_);
        if (models_.erase(model_name) == 0) return false;
    }
    // Device locks are taken outside our own lock (flat lock graph, as in
    // deploy_all). A device mid-run keeps its instance alive via shared_ptr.
    for (device::Device* dev : registry_->devices()) dev->unload_model(model_name);
    return true;
}

std::shared_ptr<nn::Model> Dispatcher::find_model(const std::string& model_name) const {
    const ReaderLock lock(models_mutex_);
    const auto it = models_.find(model_name);
    MW_CHECK(it != models_.end(), "unknown model: " + model_name);
    return it->second;
}

bool Dispatcher::has_model(const std::string& model_name) const {
    const ReaderLock lock(models_mutex_);
    return models_.count(model_name) > 0;
}

const nn::Model& Dispatcher::model(const std::string& model_name) const {
    // Valid while the model stays registered; unregister_model() invalidates
    // references handed out here, so callers must not cache them across it.
    return *find_model(model_name);
}

const nn::ModelDesc& Dispatcher::desc(const std::string& model_name) const {
    return model(model_name).desc();
}

std::vector<std::string> Dispatcher::model_names() const {
    const ReaderLock lock(models_mutex_);
    std::vector<std::string> names;
    names.reserve(models_.size());
    for (const auto& [name, model] : models_) names.push_back(name);
    return names;
}

device::InferenceResult Dispatcher::run_on(const std::string& device_name,
                                           const std::string& model_name, const Tensor& input,
                                           double sim_time,
                                           const device::SubmitOptions& options) {
    fault::FaultInjector* injector = injector_.load(std::memory_order_acquire);
    if (injector != nullptr) {
        injector->before_execute(device_name, sim_time, options.trace_id);
    }
    device::InferenceResult result =
        registry_->at(device_name).run(model_name, input, sim_time, options);
    if (injector != nullptr) {
        injector->after_execute(device_name, result.measurement, options.trace_id);
    }
    // Dispatch span: decision time until the device actually started (the gap
    // is the simulated device-queue wait).
    MW_TRACE_SPAN(obs::Phase::kDispatch, options.trace_id, sim_time,
                  result.measurement.start_time, device_name.c_str());
    return result;
}

ResilientOutcome Dispatcher::run_resilient(const std::vector<std::string>& candidates,
                                           const std::string& model_name,
                                           const Tensor& input, double sim_time,
                                           const RetryPolicy& policy,
                                           fault::DeviceHealthTracker* health,
                                           const device::SubmitOptions& options) {
    MW_CHECK(!candidates.empty(), "run_resilient: candidate list must not be empty");
    MW_CHECK(policy.max_attempts > 0, "run_resilient: max_attempts must be positive");
    double submit_time = sim_time;
    double backoff = policy.backoff_base_s;
    double total_backoff = 0.0;
    for (std::size_t attempt = 0; attempt < policy.max_attempts; ++attempt) {
        const std::string& device_name = candidates[attempt % candidates.size()];
        try {
            device::InferenceResult result =
                run_on(device_name, model_name, input, submit_time, options);
            if (health != nullptr) {
                health->on_success(device_name, result.measurement.latency_s());
            }
            return {std::move(result), device_name, attempt + 1, total_backoff};
        } catch (const fault::FaultError&) {
            if (health != nullptr) health->on_failure(device_name);
            if (attempt + 1 == policy.max_attempts) throw;
            if (health != nullptr) health->note_retry(device_name);
            MW_TRACE_INSTANT(obs::Phase::kRetry, options.trace_id, submit_time,
                             device_name.c_str());
            // Back off on the simulated timeline: the next attempt submits
            // later, it does not block a worker on a wall clock.
            submit_time += backoff;
            total_backoff += backoff;
            backoff = std::min(backoff * policy.backoff_multiplier, policy.backoff_cap_s);
        }
    }
    throw StateError("run_resilient: unreachable retry exhaustion");
}

graph::Schedule Dispatcher::run_schedule(const graph::Graph& graph,
                                         const graph::Schedule& schedule, double sim_time) {
    std::vector<device::Device*> devices;
    devices.reserve(schedule.devices.size());
    for (const graph::MemorySpec& spec : schedule.devices) {
        devices.push_back(&registry_->at(spec.name));
    }

    std::vector<std::size_t> step_of(graph.size(), 0);
    for (std::size_t s = 0; s < schedule.steps.size(); ++s) {
        for (const graph::NodeId v : schedule.steps[s].nodes) {
            MW_CHECK(v < graph.size(), "run_schedule: step references a node outside the graph");
            step_of[v] = s;
        }
    }

    graph::Schedule executed = schedule;
    std::vector<double> step_end(executed.steps.size(), 0.0);
    for (std::size_t s = 0; s < executed.steps.size(); ++s) {
        graph::Step& step = executed.steps[s];
        MW_CHECK(step.device < devices.size(), "run_schedule: step device out of range");
        // A producer delayed by device queueing pushes its consumers too.
        double earliest = std::max(sim_time, step.start_s);
        for (const graph::NodeId v : step.nodes) {
            for (const graph::NodeId u : graph.node(v).inputs) {
                if (step_of[u] != s) earliest = std::max(earliest, step_end[step_of[u]]);
            }
        }
        const device::Measurement m =
            devices[step.device]->book(graph.name(), step.duration_s(), step.energy_j, earliest);
        step.start_s = m.start_time;
        step_end[s] = m.end_time;
    }
    return executed;
}

}  // namespace mw::sched
