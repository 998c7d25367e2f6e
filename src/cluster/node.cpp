#include "cluster/node.hpp"

#include <utility>

#include "obs/trace.hpp"

namespace mw::cluster {

ModelBundle build_model_bundle(std::vector<nn::ModelSpec> specs,
                               std::vector<std::size_t> batches) {
    MW_CHECK(!specs.empty(), "build_model_bundle: at least one model spec");
    device::DeviceRegistry prototype = device::DeviceRegistry::standard_testbed();
    ModelBundle bundle;
    bundle.dataset = sched::build_scheduler_dataset(prototype, specs,
                                                    {.batches = std::move(batches)});
    bundle.specs = std::move(specs);
    return bundle;
}

Node::Node(NodeConfig config, const ModelBundle& bundle, const Clock& clock,
           Transport& transport)
    : config_(std::move(config)), clock_(&clock), transport_(&transport),
      registry_(device::DeviceRegistry::standard_testbed()),
      pool_(1) {
    MW_CHECK(!config_.name.empty(), "Node: name must be non-empty");
    dispatcher_ = std::make_unique<sched::Dispatcher>(registry_);
    for (const nn::ModelSpec& spec : bundle.specs) {
        dispatcher_->register_model(spec, config_.weight_seed);
    }
    dispatcher_->deploy_all();

    sched::DevicePredictor predictor(
        std::make_unique<ml::RandomForest>(config_.forest),
        bundle.dataset.device_names);
    predictor.fit(bundle.dataset);
    scheduler_ = std::make_unique<sched::OnlineScheduler>(
        *dispatcher_, std::move(predictor), bundle.dataset, config_.scheduler);
    for (device::Device* dev : registry_.devices()) dev->reset_timeline();

    server_ = std::make_unique<serve::Server>(*scheduler_, *dispatcher_, clock,
                                              config_.server);

    completion_worker_ = pool_.submit([this] { completion_loop(); });
    transport_->register_endpoint(config_.name,
                                  [this](const std::string& from, const Frame& frame) {
                                      handle_frame(from, frame);
                                  });
}

Node::~Node() { stop(); }

void Node::reply_error(const std::string& to, std::uint64_t id,
                       const std::string& error) {
    ResponsePacket packet;
    packet.id = id;
    packet.status = serve::RequestStatus::kFailed;
    packet.node_name = config_.name;
    packet.error = error;
    transport_->send(config_.name, to, packet.serialize(), id);
}

void Node::handle_frame(const std::string& from, const Frame& frame) {
    RequestPacket request;
    try {
        request = parse_request(frame);
    } catch (const PacketError&) {
        // No trustworthy id to answer to; the router's timeout owns it.
        refused_.fetch_add(1, std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
        return;
    }
    if (!dispatcher_->has_model(request.model_name)) {
        refused_.fetch_add(1, std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
        reply_error(from, request.id, "unknown model: " + request.model_name);
        return;
    }
    const double now = clock_->now();
    serve::InferenceRequest inference{request.model_name, std::move(request.payload),
                                      request.policy, request.slo_s};
    std::string submit_error;
    bool submitted = false;
    {
        const MutexLock lock(mutex_);
        if (!stopped_) {
            try {
                std::future<serve::Response> future =
                    server_->submit(std::move(inference));
                completions_.push_back(
                    {from, request.id, now, std::move(future)});
                submitted = true;
                activity_.notify_one();
            } catch (const std::exception& e) {
                submit_error = e.what();
            }
        } else {
            submit_error = "node stopped";
        }
    }
    if (submitted) {
        accepted_.fetch_add(1, std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
    } else {
        refused_.fetch_add(1, std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
        reply_error(from, request.id, submit_error);
    }
}

void Node::completion_loop() {
    while (true) {
        PendingCompletion item;
        {
            MutexLock lock(mutex_);
            activity_.wait_for(lock, config_.completion_poll_s, [this] {
                mutex_.assert_held();
                return stopped_ || !completions_.empty();
            });
            if (completions_.empty()) {
                if (stopped_) return;
                continue;
            }
            item = std::move(completions_.front());
            completions_.pop_front();
        }
        ResponsePacket packet;
        packet.id = item.id;
        packet.node_name = config_.name;
        try {
            serve::Response response = item.future.get();
            packet.status = response.status;
            packet.device_name = response.device_name;
            packet.error = response.error;
            packet.queue_s = response.queue_s;
            packet.execute_s = response.execute_s;
            packet.service_s =
                response.measurement.end_time - response.measurement.start_time;
            packet.end_time_s = response.measurement.end_time;
            packet.energy_j = response.measurement.energy_j;
            packet.attempts = static_cast<std::uint32_t>(response.attempts);
            packet.hedged = response.hedged;
            packet.outputs = std::move(response.outputs);
        } catch (const std::exception& e) {
            packet.status = serve::RequestStatus::kFailed;
            packet.error = e.what();
        }
        const double done = clock_->now();
        MW_TRACE_SPAN(obs::Phase::kRemoteExec, item.id, item.received_s, done,
                      config_.name.c_str());
        MW_TRACE_INSTANT(obs::Phase::kSerialize, item.id, done, "response");
        transport_->send(config_.name, item.reply_to, packet.serialize(), item.id);
    }
}

void Node::stop() {
    {
        const MutexLock lock(mutex_);
        if (stopped_) return;
        stopped_ = true;
    }
    // Resolve every outstanding future (drain or fail over per the server's
    // drain_on_stop), so the completion worker can flush its queue and
    // exit without blocking in future.get().
    server_->stop();
    activity_.notify_all();
    completion_worker_.get();
}

}  // namespace mw::cluster
