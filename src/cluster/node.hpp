// cluster::Node: one simulated serving machine. Each node owns the full
// single-node stack — its own DeviceRegistry (the paper's CPU/iGPU/dGPU
// testbed), Dispatcher, OnlineScheduler, and serve::Server — plus a
// Transport endpoint that turns RequestPacket frames into Server::submit()
// calls and submits ResponsePacket frames back to the sender.
//
// The expensive part of standing up a node is the measurement campaign the
// scheduler learns from, and that is identical across nodes (same simulated
// hardware), so it runs ONCE into a shared ModelBundle; each node fits its
// own forest from the shared dataset and profiles nothing.
//
// Clock domain: the node reads time only through the mw::Clock injected at
// construction (mw-analyze: clock-confinement). Tests typically share one
// ManualClock between router and nodes; nothing requires that — a node with
// its own clock just timestamps its spans on its own timeline.
//
// Thread safety: handle_frame() runs on transport delivery threads and
// completion_loop() on the node's own one-thread pool; one mutex (rank kClusterNode,
// held across Server::submit — the documented cluster -> serve chain)
// guards the completion queue.
#pragma once

#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "cluster/packet.hpp"
#include "cluster/transport.hpp"
#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "device/registry.hpp"
#include "ml/random_forest.hpp"
#include "sched/scheduler.hpp"
#include "sched/scheduler_dataset.hpp"
#include "serve/server.hpp"

namespace mw::cluster {

/// The shared, immutable model + profiling artifact every node deploys:
/// the architecture specs plus the labelled scheduler dataset measured once
/// on a prototype registry.
struct ModelBundle {
    std::vector<nn::ModelSpec> specs;
    sched::SchedulerDataset dataset;
};

/// Profile `specs` on a throwaway standard testbed and label the winners;
/// the bundle then feeds any number of Node constructions.
[[nodiscard]] ModelBundle build_model_bundle(std::vector<nn::ModelSpec> specs,
                                             std::vector<std::size_t> batches = {8, 64});

struct NodeConfig {
    std::string name = "node";
    serve::ServerConfig server{};
    /// Idle re-check period for the completion worker, real time.
    double completion_poll_s = 0.002;
    std::uint64_t weight_seed = 7;
    ml::ForestConfig forest{.n_estimators = 8, .seed = 2};
    sched::SchedulerConfig scheduler{.explore_probability = 0.0};
};

class Node {
public:
    /// Builds the node's serving stack from the shared bundle and registers
    /// it on `transport` under config.name.
    Node(NodeConfig config, const ModelBundle& bundle, const Clock& clock,
         Transport& transport);
    ~Node();

    Node(const Node&) = delete;
    Node& operator=(const Node&) = delete;

    [[nodiscard]] const std::string& name() const { return config_.name; }
    [[nodiscard]] std::vector<std::string> models() const {
        return dispatcher_->model_names();
    }
    [[nodiscard]] serve::Server& server() { return *server_; }
    [[nodiscard]] const serve::Server& server() const { return *server_; }
    /// Measurement control (benches pin warm/cold state across the fleet).
    [[nodiscard]] device::DeviceRegistry& registry() { return registry_; }

    /// Requests accepted off the wire (parsed and submitted to the server).
    [[nodiscard]] std::uint64_t frames_accepted() const {
        return accepted_.load(std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
    }
    /// Frames refused before submission (malformed, unknown model).
    [[nodiscard]] std::uint64_t frames_refused() const {
        return refused_.load(std::memory_order_relaxed);  // relaxed: monotonic stat, no data published
    }

    /// Stop serving: drains the server, flushes queued completions, joins
    /// the completion worker. Idempotent.
    void stop();

private:
    struct PendingCompletion {
        std::string reply_to;
        std::uint64_t id = 0;
        double received_s = 0.0;
        std::future<serve::Response> future;
    };

    void handle_frame(const std::string& from, const Frame& frame);
    void completion_loop();
    void reply_error(const std::string& to, std::uint64_t id, const std::string& error);

    NodeConfig config_;
    const Clock* clock_;
    Transport* transport_;

    device::DeviceRegistry registry_;
    std::unique_ptr<sched::Dispatcher> dispatcher_;
    std::unique_ptr<sched::OnlineScheduler> scheduler_;
    std::unique_ptr<serve::Server> server_;

    Mutex mutex_{LockRank::kClusterNode};
    CondVar activity_;
    std::deque<PendingCompletion> completions_ MW_GUARDED_BY(mutex_);
    bool stopped_ MW_GUARDED_BY(mutex_) = false;

    Atomic<std::uint64_t> accepted_{0};
    Atomic<std::uint64_t> refused_{0};

    ThreadPool pool_;  ///< one thread: the completion worker
    std::future<void> completion_worker_;
};

}  // namespace mw::cluster
