// Concurrency stress suite. Designed to run under ThreadSanitizer (the
// `tsan` preset): every test hammers a shared component from many threads so
// that races in ThreadPool, Device, DeviceRegistry, Dispatcher, or the
// serving rings surface as sanitizer reports instead of silently corrupted
// measurements.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "device/registry.hpp"
#include "ml/random_forest.hpp"
#include "nn/model_builder.hpp"
#include "nn/zoo.hpp"
#include "sched/dispatcher.hpp"
#include "sched/scheduler.hpp"
#include "sched/scheduler_dataset.hpp"
#include "serve/server.hpp"
#include "workload/stream.hpp"

namespace {

using namespace mw;
using namespace mw::device;

std::shared_ptr<const nn::Model> shared_model(const nn::ModelSpec& spec, std::uint64_t seed) {
    return std::make_shared<nn::Model>(nn::build_model(spec, seed));
}

// ---------------------------------------------------------------------------
// ThreadPool::submit
// ---------------------------------------------------------------------------

TEST(ThreadPoolStress, ConcurrentSubmitFromManyThreads) {
    ThreadPool pool(4);
    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kTasksPerThread = 200;
    std::atomic<std::size_t> executed{0};

    std::vector<std::thread> submitters;
    std::vector<std::vector<std::future<void>>> futures(kThreads);
    submitters.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        submitters.emplace_back([&, t] {
            futures[t].reserve(kTasksPerThread);
            for (std::size_t i = 0; i < kTasksPerThread; ++i) {
                futures[t].push_back(pool.submit([&executed] {
                    executed.fetch_add(1, std::memory_order_relaxed);
                }));
            }
        });
    }
    for (auto& s : submitters) s.join();
    for (auto& per_thread : futures) {
        for (auto& f : per_thread) f.get();
    }
    EXPECT_EQ(executed.load(), kThreads * kTasksPerThread);
}

TEST(ThreadPoolStress, SubmitExceptionsPropagateThroughFutures) {
    ThreadPool pool(3);
    std::vector<std::future<void>> futures;
    futures.reserve(100);
    for (int i = 0; i < 100; ++i) {
        futures.push_back(pool.submit([i] {
            if (i % 7 == 0) throw std::runtime_error("task " + std::to_string(i));
        }));
    }
    int failures = 0;
    for (auto& f : futures) {
        try {
            f.get();
        } catch (const std::runtime_error&) {
            ++failures;
        }
    }
    EXPECT_EQ(failures, 15);  // ceil(100 / 7)
}

TEST(ThreadPoolStress, DestructionDrainsQueuedWork) {
    std::atomic<std::size_t> executed{0};
    std::vector<std::future<void>> futures;
    constexpr std::size_t kTasks = 256;
    {
        ThreadPool pool(2);
        futures.reserve(kTasks);
        for (std::size_t i = 0; i < kTasks; ++i) {
            futures.push_back(pool.submit([&executed] {
                executed.fetch_add(1, std::memory_order_relaxed);
            }));
        }
        // Destructor runs with most of the queue still pending.
    }
    EXPECT_EQ(executed.load(), kTasks);
    for (auto& f : futures) EXPECT_NO_THROW(f.get());
}

// ---------------------------------------------------------------------------
// ThreadPool::parallel_for
// ---------------------------------------------------------------------------

TEST(ThreadPoolStress, ParallelForCoversEveryIndexExactlyOnce) {
    ThreadPool pool(4);
    constexpr std::size_t kRange = 10000;
    std::vector<std::atomic<int>> hits(kRange);
    pool.parallel_for(0, kRange, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kRange; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPoolStress, ConcurrentParallelForCallers) {
    ThreadPool pool(4);
    constexpr std::size_t kCallers = 6;
    constexpr std::size_t kRange = 2000;
    std::vector<std::atomic<std::size_t>> totals(kCallers);
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (std::size_t c = 0; c < kCallers; ++c) {
        callers.emplace_back([&, c] {
            pool.parallel_for(0, kRange, [&, c](std::size_t) {
                totals[c].fetch_add(1, std::memory_order_relaxed);
            }, 16);
        });
    }
    for (auto& t : callers) t.join();
    for (std::size_t c = 0; c < kCallers; ++c) EXPECT_EQ(totals[c].load(), kRange);
}

TEST(ThreadPoolStress, NestedParallelForDoesNotDeadlock) {
    // A 2-worker pool saturates instantly, so the nested calls only finish
    // because the nesting caller claims and runs chunks itself.
    ThreadPool pool(2);
    constexpr std::size_t kOuter = 32;
    constexpr std::size_t kInner = 64;
    std::atomic<std::size_t> count{0};
    pool.parallel_for(0, kOuter, [&](std::size_t) {
        pool.parallel_for(0, kInner, [&](std::size_t) {
            count.fetch_add(1, std::memory_order_relaxed);
        }, 4);
    }, 1);
    EXPECT_EQ(count.load(), kOuter * kInner);
}

TEST(ThreadPoolStress, TriplyNestedParallelFor) {
    ThreadPool pool(3);
    std::atomic<std::size_t> count{0};
    pool.parallel_for(0, 8, [&](std::size_t) {
        pool.parallel_for(0, 8, [&](std::size_t) {
            pool.parallel_for(0, 8, [&](std::size_t) {
                count.fetch_add(1, std::memory_order_relaxed);
            }, 1);
        }, 1);
    }, 1);
    EXPECT_EQ(count.load(), 8U * 8U * 8U);
}

TEST(ThreadPoolStress, ParallelForExceptionUnderContention) {
    ThreadPool pool(4);
    for (int round = 0; round < 20; ++round) {
        std::atomic<std::size_t> ran{0};
        EXPECT_THROW(
            pool.parallel_for(0, 500, [&](std::size_t i) {
                ran.fetch_add(1, std::memory_order_relaxed);
                if (i % 37 == 0) throw std::runtime_error("boom " + std::to_string(i));
            }, 8),
            std::runtime_error);
        // Every claimed chunk still completes; no task leaks past the call.
        EXPECT_LE(ran.load(), 500U);
    }
}

// ---------------------------------------------------------------------------
// ThreadPool edge cases surfaced by the stress suite
// ---------------------------------------------------------------------------

TEST(ThreadPoolEdge, ParallelForEmptyRange) {
    ThreadPool pool(2);
    bool touched = false;
    pool.parallel_for(5, 5, [&](std::size_t) { touched = true; });
    pool.parallel_for(9, 3, [&](std::size_t) { touched = true; });
    EXPECT_FALSE(touched);
}

TEST(ThreadPoolEdge, GrainLargerThanRangeRunsInline) {
    ThreadPool pool(4);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::thread::id> seen(10);
    pool.parallel_for(0, 10, [&](std::size_t i) { seen[i] = std::this_thread::get_id(); },
                      1000);
    for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolEdge, FirstExceptionWinsSingleWorker) {
    // With one worker parallel_for degrades to an inline loop, so "first" is
    // deterministic: the lowest throwing index aborts the loop.
    ThreadPool pool(1);
    std::size_t last_ran = 0;
    try {
        pool.parallel_for(0, 100, [&](std::size_t i) {
            last_ran = i;
            if (i >= 13) throw std::runtime_error(std::to_string(i));
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "13");
        EXPECT_EQ(last_ran, 13U);
    }
}

TEST(ThreadPoolEdge, ExactlyOneOfManyExceptionsPropagates) {
    ThreadPool pool(4);
    try {
        pool.parallel_for(0, 64, [](std::size_t i) {
            throw std::runtime_error(std::to_string(i));
        }, 1);
        FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
        const int idx = std::stoi(e.what());
        EXPECT_GE(idx, 0);
        EXPECT_LT(idx, 64);
    }
}

// ---------------------------------------------------------------------------
// DeviceRegistry: concurrent submission across devices
// ---------------------------------------------------------------------------

TEST(DeviceStress, ConcurrentProfileAcrossRegistryDevices) {
    DeviceRegistry registry = DeviceRegistry::standard_testbed();
    registry.load_model_everywhere(shared_model(nn::zoo::simple(), 7));
    const std::vector<Device*> devices = registry.devices();
    ASSERT_GE(devices.size(), 3U);

    constexpr std::size_t kThreads = 9;
    constexpr std::size_t kSubmitsPerThread = 64;
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            // Each thread round-robins over all devices, so peer devices of
            // one memory domain execute concurrently (the contention-probe
            // path reads the peer's busy_until while both are mid-execute).
            for (std::size_t i = 0; i < kSubmitsPerThread; ++i) {
                Device* dev = devices[(t + i) % devices.size()];
                const Measurement m =
                    dev->profile("simple", 1 + (i % 16), static_cast<double>(i) * 1e-3);
                EXPECT_GE(m.end_time, m.start_time);
                EXPECT_GE(m.energy_j, 0.0);
            }
        });
    }
    for (auto& w : workers) w.join();

    std::size_t total = 0;
    for (const Device* dev : devices) total += dev->total_batches();
    EXPECT_EQ(total, kThreads * kSubmitsPerThread);
}

TEST(DeviceStress, ObserversRaceWithSubmissions) {
    DeviceRegistry registry = DeviceRegistry::standard_testbed();
    registry.load_model_everywhere(shared_model(nn::zoo::simple(), 7));
    Device& dev = registry.at("i7-8700");

    std::atomic<bool> stop{false};
    std::thread submitter([&] {
        for (std::size_t i = 0; i < 300; ++i) {
            dev.profile("simple", 8, static_cast<double>(i) * 1e-3);
        }
        stop.store(true, std::memory_order_release);
    });
    std::vector<std::thread> observers;
    observers.reserve(4);
    for (int t = 0; t < 4; ++t) {
        observers.emplace_back([&] {
            double sink = 0.0;
            while (!stop.load(std::memory_order_acquire)) {
                sink += dev.power_at(0.05);
                sink += dev.clock_ratio_at(0.05);
                sink += dev.busy_until();
                sink += dev.total_energy_j();
                sink += dev.is_warm(0.05) ? 1.0 : 0.0;
                sink += static_cast<double>(dev.total_batches());
            }
            EXPECT_GE(sink, 0.0);
        });
    }
    submitter.join();
    for (auto& o : observers) o.join();
    EXPECT_EQ(dev.total_batches(), 300U);
}

TEST(DeviceStress, ConcurrentLoadUnloadAndRun) {
    DeviceRegistry registry = DeviceRegistry::standard_testbed();
    registry.load_model_everywhere(shared_model(nn::zoo::simple(), 7));
    Device& dev = registry.at("uhd630");

    std::thread loader([&] {
        for (int i = 0; i < 50; ++i) {
            dev.load_model(shared_model(nn::zoo::simple(), 100 + i));
            EXPECT_TRUE(dev.has_model("simple"));
            (void)dev.loaded_models();
        }
    });
    std::thread runner([&] {
        for (int i = 0; i < 50; ++i) {
            const Measurement m = dev.profile("simple", 4, 0.0);
            EXPECT_GT(m.end_time, 0.0);
        }
    });
    loader.join();
    runner.join();
}

// ---------------------------------------------------------------------------
// Dispatcher::run_on from many threads
// ---------------------------------------------------------------------------

TEST(DispatcherStress, RunOnFromManyThreadsMatchesSerialOutputs) {
    ThreadPool pool(4);
    DeviceRegistry registry = DeviceRegistry::standard_testbed({}, &pool);
    sched::Dispatcher dispatcher(registry);
    dispatcher.register_model(nn::zoo::simple(), 11);
    dispatcher.deploy_all();

    Tensor input(dispatcher.model("simple").input_shape(4));
    Rng rng(5);
    input.fill_uniform(rng, -1.0F, 1.0F);

    // Reference outputs computed serially; the kernels are deterministic and
    // identical across devices, so every concurrent run must match exactly.
    const InferenceResult reference = dispatcher.run_on("i7-8700", "simple", input, 0.0);

    const std::vector<std::string> device_names = registry.names();
    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kRunsPerThread = 25;
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            for (std::size_t i = 0; i < kRunsPerThread; ++i) {
                const std::string& device = device_names[(t + i) % device_names.size()];
                const InferenceResult result =
                    dispatcher.run_on(device, "simple", input, static_cast<double>(i));
                EXPECT_EQ(result.outputs.max_abs_diff(reference.outputs), 0.0F);
            }
        });
    }
    for (auto& w : workers) w.join();
}

TEST(DispatcherStress, RegisterAndDeployWhileServing) {
    DeviceRegistry registry = DeviceRegistry::standard_testbed();
    sched::Dispatcher dispatcher(registry);
    dispatcher.register_model(nn::zoo::simple(), 11);
    dispatcher.deploy("simple");

    Tensor input(dispatcher.model("simple").input_shape(2));
    std::atomic<bool> stop{false};
    std::vector<std::thread> servers;
    servers.reserve(4);
    for (int t = 0; t < 4; ++t) {
        servers.emplace_back([&] {
            std::size_t i = 0;
            while (!stop.load(std::memory_order_acquire)) {
                (void)dispatcher.run_on("gtx1080ti", "simple", input,
                                        static_cast<double>(i++));
                (void)dispatcher.has_model("simple");
                (void)dispatcher.model_names();
            }
        });
    }
    // Register and deploy a second model while the first is serving.
    dispatcher.register_model(nn::zoo::mnist_small(), 13);
    dispatcher.deploy_all();
    EXPECT_TRUE(dispatcher.has_model("mnist-small"));
    stop.store(true, std::memory_order_release);
    for (auto& s : servers) s.join();
}

TEST(DispatcherStress, UnregisterWhileServing) {
    // Hot-swap: the main thread repeatedly retires and re-deploys "simple"
    // while four server threads keep dispatching to it. In-flight run_on
    // calls must finish cleanly (each device pins its model instance with a
    // shared_ptr); lookups in the unregistered window throw mw::Error, which
    // a serving layer treats as a routable failure, never a crash or race.
    DeviceRegistry registry = DeviceRegistry::standard_testbed();
    sched::Dispatcher dispatcher(registry);
    dispatcher.register_model(nn::zoo::simple(), 11);
    dispatcher.deploy("simple");

    Tensor input(dispatcher.model("simple").input_shape(2));
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> served{0};
    std::atomic<std::size_t> misses{0};
    std::vector<std::thread> servers;
    servers.reserve(4);
    for (int t = 0; t < 4; ++t) {
        servers.emplace_back([&, t] {
            std::size_t i = 0;
            const char* device = (t % 2 == 0) ? "i7-8700" : "gtx1080ti";
            while (!stop.load(std::memory_order_acquire)) {
                try {
                    (void)dispatcher.run_on(device, "simple", input,
                                            static_cast<double>(i++));
                    served.fetch_add(1, std::memory_order_relaxed);
                } catch (const mw::Error&) {
                    misses.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
    }
    // Let every server thread complete at least one successful dispatch
    // before the hot-swap cycles begin (otherwise 25 fast cycles can finish
    // before the threads are even scheduled).
    while (served.load(std::memory_order_relaxed) < 4) sleep_for_seconds(0.001);
    for (int cycle = 0; cycle < 25; ++cycle) {
        EXPECT_TRUE(dispatcher.unregister_model("simple"));
        EXPECT_FALSE(dispatcher.has_model("simple"));
        EXPECT_FALSE(dispatcher.unregister_model("simple")) << "second retire is a no-op";
        dispatcher.register_model(nn::zoo::simple(), 11);
        dispatcher.deploy("simple");
    }
    stop.store(true, std::memory_order_release);
    for (auto& s : servers) s.join();
    EXPECT_GT(served.load(), 0U);
    EXPECT_TRUE(dispatcher.has_model("simple"));
}

// ---------------------------------------------------------------------------
// InputSource: concurrent next_batch on one shared source
// ---------------------------------------------------------------------------

namespace {
void hammer_source(workload::InputSource& source, std::size_t sample_elems) {
    constexpr std::size_t kThreads = 6;
    constexpr std::size_t kBatchesPerThread = 150;
    std::vector<std::thread> readers;
    readers.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        readers.emplace_back([&, t] {
            for (std::size_t i = 0; i < kBatchesPerThread; ++i) {
                const std::size_t batch = 1 + ((t + i) % 7);
                const Tensor out = source.next_batch(batch, sample_elems);
                ASSERT_EQ(out.shape()[0], batch);
                ASSERT_EQ(out.shape()[1], sample_elems);
            }
        });
    }
    for (auto& r : readers) r.join();
}
}  // namespace

TEST(InputSourceStress, MemorySourceConcurrentReaders) {
    workload::MemorySource source(64, 16, 42);
    hammer_source(source, 16);
}

TEST(InputSourceStress, SyntheticSourceConcurrentReaders) {
    workload::SyntheticSource source(42);
    hammer_source(source, 16);
}

TEST(InputSourceStress, FileSourceConcurrentReaders) {
    const std::string path = testing::TempDir() + "mw_stress_source.f32";
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out.good());
        for (int i = 0; i < 64 * 16; ++i) {
            const float v = static_cast<float>(i) * 0.5F;
            out.write(reinterpret_cast<const char*>(&v), sizeof(v));
        }
    }
    workload::FileSource source(path, 16);
    hammer_source(source, 16);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// serve::Server rings under producer/worker fire (reject-oldest: producers
// evict lane heads while workers pop and steal the same rings)
// ---------------------------------------------------------------------------

namespace {

struct ServeStressWorld {
    DeviceRegistry registry = DeviceRegistry::standard_testbed();
    sched::Dispatcher dispatcher{registry};
    std::unique_ptr<sched::OnlineScheduler> scheduler;

    ServeStressWorld() {
        dispatcher.register_model(nn::zoo::simple(), 7);
        dispatcher.deploy_all();
        const auto dataset = sched::build_scheduler_dataset(
            registry, {nn::zoo::simple()}, {.batches = {1, 4, 16}});
        sched::DevicePredictor predictor(
            std::make_unique<ml::RandomForest>(ml::ForestConfig{.n_estimators = 8, .seed = 3}),
            dataset.device_names);
        predictor.fit(dataset);
        scheduler = std::make_unique<sched::OnlineScheduler>(
            dispatcher, std::move(predictor), dataset,
            sched::SchedulerConfig{.explore_probability = 0.0});
    }
};

serve::ServerConfig reject_oldest_config() {
    serve::ServerConfig config;
    config.workers = 4;
    config.queue_capacity = 8;
    config.admission.policy = serve::BackpressurePolicy::kRejectOldest;
    config.batching.max_wait_s = 0.0;  // dispatch eagerly: keep workers popping
    return config;
}

/// Submit `count` requests from `producers` threads as fast as possible,
/// policies rotating across lanes, and tally every future's outcome.
std::map<serve::RequestStatus, std::size_t> hammer(serve::Server& server,
                                                   std::size_t producers,
                                                   std::size_t per_producer) {
    std::vector<std::vector<std::future<serve::Response>>> futures(producers);
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (std::size_t p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
            workload::SyntheticSource source(40 + p);
            futures[p].reserve(per_producer);
            for (std::size_t i = 0; i < per_producer; ++i) {
                futures[p].push_back(server.submit(serve::InferenceRequest{
                    "simple", source.next_batch(1, 4),
                    static_cast<sched::Policy>((p + i) % serve::kPolicyLanes)}));
            }
        });
    }
    for (auto& t : threads) t.join();
    std::map<serve::RequestStatus, std::size_t> outcomes;
    for (auto& per_producer_futures : futures) {
        for (auto& f : per_producer_futures) outcomes[f.get().status] += 1;
    }
    return outcomes;
}

}  // namespace

TEST(ServerStress, RejectOldestHammerAccountsEveryRequest) {
    ServeStressWorld world;
    WallClock clock;
    serve::Server server(*world.scheduler, world.dispatcher, clock,
                         reject_oldest_config());
    constexpr std::size_t kProducers = 4;
    constexpr std::size_t kPerProducer = 400;
    auto outcomes = hammer(server, kProducers, kPerProducer);
    server.stop();

    const auto t = server.stats().totals();
    EXPECT_EQ(t.submitted, kProducers * kPerProducer);
    EXPECT_EQ(t.completed + t.evicted + t.rejected_full, t.submitted)
        << "every request completes, is evicted, or is refused — exactly once";
    EXPECT_EQ(outcomes[serve::RequestStatus::kCompleted], t.completed);
    EXPECT_EQ(outcomes[serve::RequestStatus::kEvicted], t.evicted);
    EXPECT_EQ(outcomes[serve::RequestStatus::kRejectedFull], t.rejected_full);
    EXPECT_EQ(t.admitted, t.completed + t.evicted);
    EXPECT_GT(t.evicted, 0U) << "an 8-slot queue under 1600 pushes must evict";
    EXPECT_EQ(server.queue_depth(), 0U);
    EXPECT_EQ(server.pool_live(), 0U) << "every node returned to the arena";
}

TEST(ServerStress, ConcurrentStopWithTraffic) {
    ServeStressWorld world;
    WallClock clock;
    serve::Server server(*world.scheduler, world.dispatcher, clock,
                         reject_oldest_config());
    std::vector<std::thread> stoppers;
    stoppers.reserve(3);
    for (int k = 0; k < 3; ++k) {
        stoppers.emplace_back([&] {
            sleep_for_seconds(0.01);
            server.stop();  // racing stoppers must be idempotent
        });
    }
    auto outcomes = hammer(server, 2, 400);
    for (auto& t : stoppers) t.join();

    const auto t = server.stats().totals();
    EXPECT_EQ(t.submitted, 800U);
    EXPECT_EQ(t.completed + t.evicted + t.rejected_full + t.shutdown, t.submitted);
    EXPECT_EQ(outcomes[serve::RequestStatus::kShutdown], t.shutdown);
    EXPECT_FALSE(server.running());
    EXPECT_EQ(server.queue_depth(), 0U);
}

// ---------------------------------------------------------------------------
// Lock-rank validator (common/sync.hpp)
// ---------------------------------------------------------------------------

TEST(LockRankValidator, RankNamesAreStable) {
    EXPECT_STREQ(lock_rank_name(LockRank::kScheduler), "scheduler");
    EXPECT_STREQ(lock_rank_name(LockRank::kRegistry), "registry");
    EXPECT_STREQ(lock_rank_name(LockRank::kDispatcher), "dispatcher");
    EXPECT_STREQ(lock_rank_name(LockRank::kDevice), "device");
    EXPECT_STREQ(lock_rank_name(LockRank::kFaultHealth), "fault-health");
    EXPECT_STREQ(lock_rank_name(LockRank::kAdmission), "admission");
    EXPECT_STREQ(lock_rank_name(LockRank::kStats), "stats");
    EXPECT_STREQ(lock_rank_name(LockRank::kLogger), "logger");
}

TEST(LockRankValidator, InOrderChainIsAccepted) {
    Mutex registry_mu(LockRank::kRegistry);
    Mutex device_mu(LockRank::kDevice);
    Mutex stats_mu(LockRank::kStats);
    {
        const MutexLock a(registry_mu);
        const MutexLock b(device_mu);
        const MutexLock c(stats_mu);
    }
    // The per-thread stack popped cleanly: low ranks are acquirable again.
    const MutexLock again(registry_mu);
}

TEST(LockRankValidator, IndependentThreadsHaveIndependentStacks) {
    Mutex device_mu(LockRank::kDevice);
    Mutex registry_mu(LockRank::kRegistry);
    const MutexLock dev(device_mu);
    // This thread holds rank 40; another thread may still start its own
    // chain at rank 20 (the stack is thread-local, not global).
    std::thread other([&] {
        const MutexLock reg(registry_mu);
    });
    other.join();
}

#if defined(MW_LOCK_RANK_CHECKS)

TEST(LockRankValidatorDeathTest, InvertedAcquisitionAbortsNamingBothRanks) {
    // This binary spawns threads, so in-process fork would be unsafe;
    // threadsafe style re-executes the test binary for the death assertion.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Mutex registry_mu(LockRank::kRegistry);
    Mutex device_mu(LockRank::kDevice);
    EXPECT_DEATH(
        {
            const MutexLock dev(device_mu);
            const MutexLock reg(registry_mu);
        },
        "lock-rank violation: acquiring .registry. .rank 20. "
        "while already holding .device. .rank 40.");
}

TEST(LockRankValidatorDeathTest, SameRankReentryAborts) {
    // Two locks of one rank is exactly the Device AB-BA peer hazard; the
    // validator rejects it even in the "safe" acquisition order.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Mutex first(LockRank::kDevice);
    Mutex second(LockRank::kDevice);
    EXPECT_DEATH(
        {
            const MutexLock a(first);
            const MutexLock b(second);
        },
        "lock-rank violation: acquiring .device. .rank 40. "
        "while already holding .device. .rank 40.");
}

#endif  // MW_LOCK_RANK_CHECKS

// ---------------------------------------------------------------------------
// Regression: lock-protocol violations fixed by the sync.hpp migration
// ---------------------------------------------------------------------------

// Device::add_memory_peer used to mutate the peer vector with no lock held,
// racing the contention probe in execute() that iterates it; the registry's
// device table was likewise unguarded. Wiring a new same-domain device into
// a registry whose existing devices are mid-execution must be clean (run
// under the tsan preset to prove it).
TEST(RegistryStress, PeerWiringRacesExecution) {
    DeviceRegistry registry = DeviceRegistry::standard_testbed();
    registry.load_model_everywhere(shared_model(nn::zoo::simple(), 7));
    Device& cpu = registry.at("i7-8700");
    Device& igpu = registry.at("uhd630");
    const std::size_t cpu_peers_before = cpu.memory_peer_count();

    std::atomic<bool> stop{false};
    std::vector<std::thread> runners;
    runners.reserve(4);
    for (int t = 0; t < 4; ++t) {
        runners.emplace_back([&, t] {
            Device& dev = (t % 2 == 0) ? cpu : igpu;
            for (int i = 0; i < 200 && !stop.load(std::memory_order_acquire); ++i) {
                dev.profile("simple", 4, static_cast<double>(i) * 1e-3);
            }
        });
    }
    std::thread wirer([&] {
        for (int i = 0; i < 8; ++i) {
            DeviceParams p = i7_8700_params();  // memory_domain 0: joins CPU+iGPU
            p.name = "late-joiner-" + std::to_string(i);
            Device& added = registry.emplace(std::move(p));
            added.load_model(shared_model(nn::zoo::simple(), 50 + i));
        }
        stop.store(true, std::memory_order_release);
    });
    for (auto& r : runners) r.join();
    wirer.join();

    // Both pre-existing domain members saw every late joiner.
    EXPECT_EQ(cpu.memory_peer_count(), cpu_peers_before + 8);
    EXPECT_EQ(igpu.memory_peer_count(), cpu_peers_before + 8);
    EXPECT_EQ(registry.size(), 3U + 8U);
}

// Registry lookups concurrent with add(): the table is append-only under its
// own lock, so readers see either the old or the new size, never a torn
// vector.
TEST(RegistryStress, LookupsRaceWithAdd) {
    DeviceRegistry registry = DeviceRegistry::standard_testbed();
    std::atomic<bool> stop{false};
    std::vector<std::thread> readers;
    readers.reserve(3);
    for (int t = 0; t < 3; ++t) {
        readers.emplace_back([&] {
            while (!stop.load(std::memory_order_acquire)) {
                EXPECT_TRUE(registry.contains("i7-8700"));
                EXPECT_GE(registry.size(), 3U);
                EXPECT_GE(registry.devices().size(), 3U);
                EXPECT_GE(registry.names().size(), 3U);
                EXPECT_EQ(registry.at("uhd630").name(), "uhd630");
            }
        });
    }
    for (int i = 0; i < 32; ++i) {
        DeviceParams p = gtx1080ti_params();  // private memory domain
        p.name = "extra-" + std::to_string(i);
        registry.emplace(std::move(p));
    }
    stop.store(true, std::memory_order_release);
    for (auto& r : readers) r.join();
    EXPECT_EQ(registry.size(), 3U + 32U);
}

}  // namespace
