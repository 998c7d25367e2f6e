// Fixed-size worker pool with a parallel_for primitive.
//
// This is the shared-memory execution substrate the "OpenCL work-group"
// abstraction in src/nn/kernels maps onto: a work-group becomes one task, and
// work-items inside a group run sequentially inside the task (exactly how a
// CPU OpenCL runtime coalesces work-items onto hardware threads).
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "common/sync.hpp"

namespace mw {

/// A fixed pool of worker threads with FIFO task dispatch.
class ThreadPool {
public:
    /// Spawn `threads` workers (0 -> std::thread::hardware_concurrency()).
    explicit ThreadPool(std::size_t threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    [[nodiscard]] std::size_t size() const { return workers_.size(); }

    /// Enqueue an arbitrary task; the returned future observes completion
    /// and propagates exceptions.
    std::future<void> submit(std::function<void()> task);

    /// Run fn(i) for i in [begin, end) across the pool, in chunks of
    /// `grain` iterations (grain == 0 picks ~4 chunks per worker). Blocks
    /// until every iteration completed; rethrows the first exception captured
    /// (the others are swallowed). Safe to call from inside a pool task:
    /// the caller claims and executes chunks itself, so nested parallel_for
    /// cannot deadlock even when every worker is busy.
    void parallel_for(std::size_t begin, std::size_t end,
                      const std::function<void(std::size_t)>& fn, std::size_t grain = 0);

    /// Process-wide shared pool (lazily constructed, hardware concurrency).
    /// Its user is `Tensor::fill_normal`, which fills large weight tensors
    /// one block per task; a process that never fills one never starts it.
    static ThreadPool& global();

private:
    void worker_loop();
    void enqueue(std::function<void()> task);

    std::vector<std::thread> workers_;
    mutable Mutex mutex_{LockRank::kPool};
    std::deque<std::function<void()>> queue_ MW_GUARDED_BY(mutex_);
    CondVar cv_;
    bool stopping_ MW_GUARDED_BY(mutex_) = false;
};

}  // namespace mw
