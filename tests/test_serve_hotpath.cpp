// Lock-free serving hot path suite (ROADMAP item 2): the MpmcRing /
// EpochCell / RequestPool / ShardedRequestQueue building blocks, the
// Server's ticket API end-to-end, exact accounting under concurrent
// submitters, and the zero-allocation steady-state contract asserted with a
// counting global operator new.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <future>
#include <new>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "common/epoch_cell.hpp"
#include "common/mpmc_ring.hpp"
#include "common/timer.hpp"
#include "ml/random_forest.hpp"
#include "nn/zoo.hpp"
#include "sched/scheduler.hpp"
#include "sched/scheduler_dataset.hpp"
#include "serve/request_pool.hpp"
#include "serve/server.hpp"
#include "serve/sharded_queue.hpp"
#include "workload/stream.hpp"

// ---------------------------------------------------------------------------
// Counting allocator: every flavour of global operator new funnels through
// here so the steady-state test can assert the hot path stays off the heap.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::size_t> g_news{0};
std::atomic<bool> g_count_news{false};

void* counted_alloc(std::size_t size) {
    if (g_count_news.load(std::memory_order_relaxed)) {
        g_news.fetch_add(1, std::memory_order_relaxed);
    }
    void* p = std::malloc(size);
    if (p == nullptr) throw std::bad_alloc();
    return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

using namespace mw;
using namespace mw::serve;

// ---------------------------------------------------------------------------
// MpmcRing
// ---------------------------------------------------------------------------

TEST(MpmcRing, FifoWithinCapacity) {
    MpmcRing<int> ring(4);
    EXPECT_EQ(ring.capacity(), 4U);
    for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
    int overflow = 99;
    EXPECT_FALSE(ring.try_push(overflow)) << "full ring must refuse";
    for (int i = 0; i < 4; ++i) {
        int out = -1;
        ASSERT_TRUE(ring.try_pop(out));
        EXPECT_EQ(out, i);
    }
    int out = -1;
    EXPECT_FALSE(ring.try_pop(out));
}

TEST(MpmcRing, RejectsNonPowerOfTwoCapacity) {
    EXPECT_THROW(MpmcRing<int>(5), InvalidArgument);
    EXPECT_THROW(MpmcRing<int>(0), InvalidArgument);
}

TEST(MpmcRing, ConcurrentProducersConsumersAccountEverything) {
    constexpr int kProducers = 4, kConsumers = 4, kPerProducer = 5000;
    MpmcRing<int> ring(256);
    std::atomic<long long> sum{0};
    std::atomic<int> popped{0};
    std::vector<std::thread> threads;
    threads.reserve(kProducers + kConsumers);
    for (int p = 0; p < kProducers; ++p) {
        threads.emplace_back([&ring, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                int value = p * kPerProducer + i;
                while (!ring.try_push(value)) std::this_thread::yield();
            }
        });
    }
    for (int c = 0; c < kConsumers; ++c) {
        threads.emplace_back([&] {
            int out = 0;
            while (popped.load(std::memory_order_relaxed) < kProducers * kPerProducer) {
                if (ring.try_pop(out)) {
                    sum.fetch_add(out, std::memory_order_relaxed);
                    popped.fetch_add(1, std::memory_order_relaxed);
                } else {
                    std::this_thread::yield();
                }
            }
        });
    }
    for (auto& t : threads) t.join();
    const long long n = static_cast<long long>(kProducers) * kPerProducer;
    EXPECT_EQ(popped.load(), n);
    EXPECT_EQ(sum.load(), n * (n - 1) / 2) << "every pushed value popped exactly once";
    EXPECT_EQ(ring.size(), 0U);
}

// ---------------------------------------------------------------------------
// EpochCell
// ---------------------------------------------------------------------------

TEST(EpochCell, ReadSeesLatestPublish) {
    EpochCell<int> cell(std::make_unique<int>(1));
    EXPECT_EQ(*cell.read(), 1);
    cell.publish(std::make_unique<int>(2));
    EXPECT_EQ(*cell.read(), 2);
    cell.publish(std::make_unique<int>(3));
    cell.publish(std::make_unique<int>(4));
    EXPECT_EQ(*cell.read(), 4);
}

TEST(EpochCell, GuardPinsSnapshotAcrossPublishes) {
    EpochCell<int> cell(std::make_unique<int>(10));
    auto guard = cell.read();
    cell.publish(std::make_unique<int>(20));
    // One more publish would want this guard's slot — do it from another
    // thread and release the guard while the writer drains.
    std::thread writer([&cell] { cell.publish(std::make_unique<int>(30)); });
    EXPECT_EQ(*guard, 10) << "pinned payload stays valid across publishes";
    { auto drop = std::move(guard); }
    writer.join();
    EXPECT_EQ(*cell.read(), 30);
}

TEST(EpochCell, ConcurrentReadersNeverSeeTornOrFreedState) {
    // Payload self-validates: both fields must agree, and reads must never
    // observe a value newer than the last publish or older than the first.
    struct Pair {
        int a, b;
    };
    EpochCell<Pair> cell(std::make_unique<Pair>(Pair{0, 0}));
    std::atomic<bool> stop{false};
    std::vector<std::thread> readers;
    readers.reserve(4);
    for (int r = 0; r < 4; ++r) {
        readers.emplace_back([&] {
            while (!stop.load(std::memory_order_acquire)) {
                auto guard = cell.read();
                ASSERT_EQ(guard->a, guard->b) << "torn or reclaimed snapshot";
            }
        });
    }
    for (int i = 1; i <= 2000; ++i) {
        cell.publish(std::make_unique<Pair>(Pair{i, i}));
    }
    stop.store(true, std::memory_order_release);
    for (auto& t : readers) t.join();
    EXPECT_EQ(cell.read()->a, 2000);
}

// ---------------------------------------------------------------------------
// RequestPool
// ---------------------------------------------------------------------------

TEST(RequestPool, AcquireReleaseRecyclesWithoutExhaustion) {
    RequestPool pool(4);
    EXPECT_EQ(pool.capacity(), 4U);
    EXPECT_EQ(pool.live(), 0U);
    for (int lap = 0; lap < 100; ++lap) {
        HotRequest* node = pool.acquire();
        ASSERT_NE(node, nullptr);
        EXPECT_EQ(pool.live(), 1U);
        pool.release(node);
        EXPECT_EQ(pool.live(), 0U);
    }
}

TEST(RequestPool, ExhaustionShedsInsteadOfGrowing) {
    RequestPool pool(2);
    HotRequest* a = pool.acquire();
    HotRequest* b = pool.acquire();
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(pool.acquire(), nullptr) << "an exhausted pool sheds, never allocates";
    pool.release(a);
    EXPECT_NE(pool.acquire(), nullptr);
    pool.release(b);
}

TEST(RequestPool, StaleTicketIsDetectedAfterRecycle) {
    RequestPool pool(1);
    HotRequest* node = pool.acquire();
    ASSERT_NE(node, nullptr);
    node->id = 7;
    const Ticket ticket{node->index, node->gen.load(std::memory_order_relaxed), 7};
    EXPECT_EQ(pool.resolve(ticket), node);
    pool.release(node);
    EXPECT_EQ(pool.resolve(ticket), nullptr) << "release bumps the generation";
    // Recycle the slot for a new request: the old ticket must stay stale.
    HotRequest* next = pool.acquire();
    ASSERT_EQ(next, node) << "single-slot pool recycles the same node";
    EXPECT_EQ(pool.resolve(ticket), nullptr);
    pool.release(next);
}

TEST(RequestPool, ConcurrentChurnKeepsFreelistConsistent) {
    RequestPool pool(8);
    std::vector<std::thread> threads;
    threads.reserve(4);
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&pool] {
            for (int lap = 0; lap < 20000; ++lap) {
                HotRequest* node = pool.acquire();
                if (node != nullptr) pool.release(node);
            }
        });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(pool.live(), 0U);
    // Every node must be reachable again.
    std::set<HotRequest*> seen;
    for (int i = 0; i < 8; ++i) {
        HotRequest* node = pool.acquire();
        ASSERT_NE(node, nullptr);
        seen.insert(node);
    }
    EXPECT_EQ(seen.size(), 8U) << "freelist lost or duplicated a node";
}

// ---------------------------------------------------------------------------
// ShardedRequestQueue
// ---------------------------------------------------------------------------

TEST(ShardedQueue, PushPopAndGlobalCapacity) {
    RequestPool pool(8);
    ShardedRequestQueue queue(2, 3);
    std::vector<HotRequest*> nodes;
    for (int i = 0; i < 3; ++i) {
        HotRequest* node = pool.acquire();
        node->policy = sched::Policy::kMaxThroughput;
        ASSERT_TRUE(queue.try_push(static_cast<std::size_t>(i) % 2, node));
        nodes.push_back(node);
    }
    HotRequest* extra = pool.acquire();
    extra->policy = sched::Policy::kMaxThroughput;
    EXPECT_FALSE(queue.try_push(0, extra)) << "global capacity across shards";
    EXPECT_EQ(queue.size(), 3U);
    pool.release(extra);

    EXPECT_EQ(queue.pop_lane(0, lane_of(sched::Policy::kMaxThroughput)), nodes[0]);
    EXPECT_EQ(queue.pop_lane(1, lane_of(sched::Policy::kMaxThroughput)), nodes[1]);
    EXPECT_EQ(queue.pop_lane(0, lane_of(sched::Policy::kMaxThroughput)), nodes[2]);
    EXPECT_TRUE(queue.empty());
    for (HotRequest* n : nodes) pool.release(n);
}

TEST(ShardedQueue, StealTakesFromBusiestSibling) {
    RequestPool pool(8);
    ShardedRequestQueue queue(3, 8);
    // Load shard 0 with two requests, shard 2 with one; shard 1 is empty.
    std::vector<HotRequest*> nodes;
    for (int i = 0; i < 3; ++i) {
        HotRequest* node = pool.acquire();
        node->policy = sched::Policy::kMinLatency;
        node->id = static_cast<std::uint64_t>(i);
        nodes.push_back(node);
    }
    ASSERT_TRUE(queue.try_push(0, nodes[0]));
    ASSERT_TRUE(queue.try_push(0, nodes[1]));
    ASSERT_TRUE(queue.try_push(2, nodes[2]));

    EXPECT_EQ(queue.pop_lane(1, lane_of(sched::Policy::kMinLatency)), nullptr)
        << "own shard empty";
    HotRequest* stolen = queue.steal(1, lane_of(sched::Policy::kMinLatency));
    ASSERT_NE(stolen, nullptr);
    EXPECT_EQ(stolen->id, 0U) << "steal drains the busiest sibling FIFO";
    EXPECT_EQ(queue.size(), 2U);
    // Everything remains reachable through steals.
    EXPECT_NE(queue.steal(1, 0), nullptr);
    EXPECT_NE(queue.steal(1, 0), nullptr);
    EXPECT_EQ(queue.steal(1, 0), nullptr);
    for (HotRequest* n : nodes) pool.release(n);
}

TEST(ShardedQueue, CloseRefusesPushesAndDrainReturnsRest) {
    RequestPool pool(4);
    ShardedRequestQueue queue(2, 4);
    HotRequest* a = pool.acquire();
    a->policy = sched::Policy::kMinEnergy;
    ASSERT_TRUE(queue.try_push(0, a));
    queue.close();
    HotRequest* b = pool.acquire();
    b->policy = sched::Policy::kMinEnergy;
    EXPECT_FALSE(queue.try_push(0, b));
    pool.release(b);
    const std::vector<HotRequest*> rest = queue.drain();
    ASSERT_EQ(rest.size(), 1U);
    EXPECT_EQ(rest[0], a);
    EXPECT_TRUE(queue.empty());
    pool.release(a);
}

// ---------------------------------------------------------------------------
// Server ticket API end-to-end
// ---------------------------------------------------------------------------

struct HotWorld {
    device::DeviceRegistry registry = device::DeviceRegistry::standard_testbed();
    sched::Dispatcher dispatcher{registry};
    std::optional<sched::OnlineScheduler> scheduler;
    ManualClock clock;

    HotWorld() {
        dispatcher.register_model(nn::zoo::simple(), 7);
        dispatcher.deploy_all();
        const auto dataset = sched::build_scheduler_dataset(
            registry, {nn::zoo::simple()}, {.batches = {1, 4, 16}});
        sched::DevicePredictor predictor(
            std::make_unique<ml::RandomForest>(
                ml::ForestConfig{.n_estimators = 8, .seed = 3}),
            dataset.device_names);
        predictor.fit(dataset);
        scheduler.emplace(dispatcher, std::move(predictor), dataset,
                          sched::SchedulerConfig{.explore_probability = 0.0});
        for (device::Device* dev : registry.devices()) dev->reset_timeline();
    }
};

TicketResult await_result(Server& server, const Ticket& ticket) {
    TicketResult result;
    while (!server.try_result(ticket, result)) sleep_for_seconds(0.0002);
    return result;
}

TEST(ServerHotPath, EveryPolicyBuildsTheArena) {
    HotWorld world;
    for (const BackpressurePolicy policy :
         {BackpressurePolicy::kRejectNewest, BackpressurePolicy::kRejectOldest,
          BackpressurePolicy::kDeadlineShed}) {
        ServerConfig config;
        config.start_on_construction = false;
        config.admission.policy = policy;
        Server server(*world.scheduler, world.dispatcher, world.clock, config);
        EXPECT_TRUE(server.hot_path_active()) << backpressure_name(policy);
        EXPECT_GT(server.pool_capacity(), config.queue_capacity)
            << backpressure_name(policy) << " serves through the pooled arena";
    }
}

TEST(ServerHotPath, TicketRoundTripMatchesDirectForward) {
    HotWorld world;
    ServerConfig config;
    config.workers = 2;
    config.batching.enabled = false;
    Server server(*world.scheduler, world.dispatcher, world.clock, config);

    workload::SyntheticSource source(21);
    std::vector<Tensor> payloads;
    std::vector<Ticket> tickets;
    for (int i = 0; i < 8; ++i) {
        payloads.push_back(source.next_batch(2, 4));
        const auto outcome = server.submit_ticket(
            "simple", std::span<const float>(payloads.back().data(), payloads.back().numel()),
            2, sched::Policy::kMaxThroughput);
        ASSERT_TRUE(outcome.admitted);
        tickets.push_back(outcome.ticket);
    }
    for (int i = 0; i < 8; ++i) {
        const TicketResult result = await_result(server, tickets[static_cast<std::size_t>(i)]);
        ASSERT_TRUE(result.ok()) << std::string(result.error);
        ASSERT_NE(result.device_name, nullptr);
        ASSERT_NE(result.measurement, nullptr);
        EXPECT_EQ(result.measurement->model_name, "simple");
        // Outputs must equal a direct forward pass of the same payload.
        Tensor shaped(world.dispatcher.model("simple").input_shape(2));
        std::copy_n(payloads[static_cast<std::size_t>(i)].data(), shaped.numel(),
                    shaped.data());
        const Tensor reference = world.dispatcher.model("simple").forward(shaped);
        ASSERT_EQ(result.outputs.size(), reference.numel());
        float max_diff = 0.0F;
        for (std::size_t j = 0; j < reference.numel(); ++j) {
            max_diff = std::max(max_diff,
                                std::abs(result.outputs[j] - reference.data()[j]));
        }
        EXPECT_EQ(max_diff, 0.0F);
        server.release(tickets[static_cast<std::size_t>(i)]);
    }
    server.stop();
    EXPECT_EQ(server.pool_live(), 0U) << "every ticket released back to the arena";
    const auto totals = server.stats().totals();
    EXPECT_EQ(totals.submitted, 8U);
    EXPECT_EQ(totals.completed, 8U);
}

TEST(ServerHotPath, StaleTicketThrowsInsteadOfMisreading) {
    HotWorld world;
    ServerConfig config;
    config.workers = 1;
    config.batching.enabled = false;
    Server server(*world.scheduler, world.dispatcher, world.clock, config);

    workload::SyntheticSource source(22);
    const Tensor payload = source.next_batch(2, 4);
    const auto outcome = server.submit_ticket(
        "simple", std::span<const float>(payload.data(), payload.numel()), 2,
        sched::Policy::kMaxThroughput);
    ASSERT_TRUE(outcome.admitted);
    (void)await_result(server, outcome.ticket);
    server.release(outcome.ticket);
    TicketResult result;
    EXPECT_THROW((void)server.try_result(outcome.ticket, result), StateError);
    EXPECT_THROW(server.release(outcome.ticket), StateError);
}

TEST(ServerHotPath, RejectsWhenArenaOrQueueIsFull) {
    HotWorld world;
    ServerConfig config;
    config.workers = 1;
    config.queue_capacity = 2;
    config.hot_path.pool_capacity = 2;
    config.batching.enabled = false;       // ManualClock: a partial batch would wait forever
    config.start_on_construction = false;  // no worker drains: pushes pile up
    Server server(*world.scheduler, world.dispatcher, world.clock, config);

    workload::SyntheticSource source(23);
    const Tensor payload = source.next_batch(1, 4);
    const std::span<const float> span(payload.data(), payload.numel());
    const auto first = server.submit_ticket("simple", span, 1,
                                            sched::Policy::kMaxThroughput);
    const auto second = server.submit_ticket("simple", span, 1,
                                             sched::Policy::kMaxThroughput);
    ASSERT_TRUE(first.admitted);
    ASSERT_TRUE(second.admitted);
    const auto third = server.submit_ticket("simple", span, 1,
                                            sched::Policy::kMaxThroughput);
    EXPECT_FALSE(third.admitted);
    EXPECT_EQ(third.status, RequestStatus::kRejectedFull);

    server.start();
    const TicketResult r1 = await_result(server, first.ticket);
    const TicketResult r2 = await_result(server, second.ticket);
    EXPECT_TRUE(r1.ok());
    EXPECT_TRUE(r2.ok());
    server.release(first.ticket);
    server.release(second.ticket);
    server.stop();
    const auto totals = server.stats().totals();
    EXPECT_EQ(totals.submitted, 3U);
    EXPECT_EQ(totals.rejected_full, 1U);
    EXPECT_EQ(totals.completed, 2U);
}

TEST(ServerHotPath, EvictedTicketResolvesEvicted) {
    HotWorld world;
    ServerConfig config;
    config.workers = 1;
    config.queue_capacity = 1;
    config.admission.policy = BackpressurePolicy::kRejectOldest;
    config.batching.enabled = false;
    config.start_on_construction = false;
    Server server(*world.scheduler, world.dispatcher, world.clock, config);

    workload::SyntheticSource source(24);
    const Tensor payload = source.next_batch(1, 4);
    const std::span<const float> span(payload.data(), payload.numel());
    const auto victim = server.submit_ticket("simple", span, 1,
                                             sched::Policy::kMaxThroughput);
    const auto newcomer = server.submit_ticket("simple", span, 1,
                                               sched::Policy::kMaxThroughput);
    ASSERT_TRUE(victim.admitted);
    ASSERT_TRUE(newcomer.admitted);
    TicketResult result;
    ASSERT_TRUE(server.try_result(victim.ticket, result)) << "evicted at admission";
    EXPECT_EQ(result.status, RequestStatus::kEvicted);
    EXPECT_TRUE(result.outputs.empty());
    server.release(victim.ticket);

    server.start();
    EXPECT_TRUE(await_result(server, newcomer.ticket).ok());
    server.release(newcomer.ticket);
    server.stop();
    EXPECT_EQ(server.pool_live(), 0U);
    const auto totals = server.stats().totals();
    EXPECT_EQ(totals.evicted, 1U);
    EXPECT_EQ(totals.completed, 1U);
}

TEST(ServerHotPath, MixedTicketAndFutureSubmittersAccountExactly) {
    HotWorld world;
    ServerConfig config;
    config.workers = 3;
    config.queue_capacity = 64;
    config.batching.max_wait_s = 0.0;  // dispatch eagerly
    WallClock wall;
    Server server(*world.scheduler, world.dispatcher, wall, config);

    constexpr int kThreads = 4, kPerThread = 50;
    std::atomic<std::size_t> completed{0}, rejected{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            workload::SyntheticSource source(100 + t);
            const auto policy = static_cast<sched::Policy>(t % 3);
            for (int i = 0; i < kPerThread; ++i) {
                Tensor payload = source.next_batch(1, 4);
                if (t % 2 == 0) {
                    const auto outcome = server.submit_ticket(
                        "simple", std::span<const float>(payload.data(), payload.numel()),
                        1, policy);
                    if (!outcome.admitted) {
                        rejected.fetch_add(1);
                        continue;
                    }
                    TicketResult result;
                    while (!server.try_result(outcome.ticket, result)) {
                        sleep_for_seconds(0.0001);
                    }
                    if (result.ok()) completed.fetch_add(1);
                    server.release(outcome.ticket);
                } else {
                    auto future = server.submit(InferenceRequest{
                        "simple", std::move(payload), policy, 0.0});
                    const Response response = future.get();
                    if (response.status == RequestStatus::kCompleted) {
                        completed.fetch_add(1);
                    } else {
                        rejected.fetch_add(1);
                    }
                }
            }
        });
    }
    for (auto& t : threads) t.join();
    server.stop();

    const auto totals = server.stats().totals();
    EXPECT_EQ(totals.submitted, static_cast<std::size_t>(kThreads * kPerThread));
    EXPECT_EQ(totals.completed, completed.load());
    EXPECT_EQ(totals.submitted,
              totals.completed + totals.rejected_full + totals.shed + totals.shutdown);
    EXPECT_EQ(totals.completed + totals.failed + totals.shutdown + totals.shed,
              totals.admitted);
    EXPECT_EQ(server.pool_live(), 0U);
    EXPECT_EQ(server.queue_depth(), 0U);
}

// ---------------------------------------------------------------------------
// Zero-allocation steady state
// ---------------------------------------------------------------------------

TEST(ServerHotPath, SteadyStateStaysOffTheHeap) {
    // Drive the full submit-side machinery — arena acquire, payload copy,
    // sharded push, worker-style pop/steal, snapshot-pinned decide, output
    // publication, ticket release — single-threaded, so every operator new
    // in the lap is attributable. Device execution (nn forward) is excluded:
    // its tensors are the documented exception to the contract (DESIGN.md
    // §15).
    HotWorld world;
    const auto snapshot = world.scheduler->build_snapshot(0.0);
    ASSERT_NE(snapshot->find_model("simple"), nullptr);
    EpochCell<sched::SchedulerSnapshot> cell(world.scheduler->build_snapshot(0.0));

    RequestPool pool(16);
    ShardedRequestQueue queue(2, 8);
    std::vector<double> scratch(cell.read()->scratch_size());
    std::vector<float> payload(8, 0.5F);
    std::vector<float> fake_output(8, 1.0F);

    auto lap = [&](std::size_t shard) {
        HotRequest* node = pool.acquire();
        ASSERT_NE(node, nullptr);
        node->id = 1;
        node->model_name.assign("simple");
        node->samples = 2;
        node->policy = sched::Policy::kMaxThroughput;
        node->arrival_s = 0.0;
        node->set_payload(std::span<const float>(payload.data(), payload.size()));
        ASSERT_TRUE(queue.try_push(shard, node));

        // Worker side: steal from the sibling to cover the steal path too.
        HotRequest* popped = queue.pop_lane(shard ^ 1U, lane_of(node->policy));
        if (popped == nullptr) popped = queue.steal(shard ^ 1U, lane_of(node->policy));
        ASSERT_EQ(popped, node);
        const auto guard = cell.read();
        const auto decision =
            guard->decide(popped->model_name, popped->policy, popped->samples,
                          std::span<double>(scratch));
        ASSERT_NE(decision.device, nullptr);
        float* out = popped->output_buffer(fake_output.size());
        std::copy(fake_output.begin(), fake_output.end(), out);
        popped->status = RequestStatus::kCompleted;
        popped->device_name = &decision.device->name();
        popped->state.store(HotState::kReady, std::memory_order_release);
        pool.release(popped);
    };

    // Warm-up laps size every reused buffer (payload arena, output arena,
    // model-name capacity).
    for (std::size_t i = 0; i < 16; ++i) lap(i % 2);

    g_news.store(0, std::memory_order_relaxed);
    g_count_news.store(true, std::memory_order_release);
    for (std::size_t i = 0; i < 2000; ++i) lap(i % 2);
    g_count_news.store(false, std::memory_order_release);
    EXPECT_EQ(g_news.load(), 0U)
        << "steady-state submit->complete must not touch the heap";
}

TEST(ServerHotPath, ArenaOccupancyIsBoundedInSteadyState) {
    HotWorld world;
    ServerConfig config;
    config.workers = 2;
    config.queue_capacity = 32;
    config.batching.max_wait_s = 0.0;
    WallClock wall;
    Server server(*world.scheduler, world.dispatcher, wall, config);
    const std::size_t capacity = server.pool_capacity();
    ASSERT_GT(capacity, 0U);

    workload::SyntheticSource source(31);
    constexpr std::size_t kOutstanding = 8;
    std::vector<Ticket> window;
    std::size_t max_live = 0;
    for (int i = 0; i < 200; ++i) {
        const Tensor payload = source.next_batch(1, 4);
        const auto outcome = server.submit_ticket(
            "simple", std::span<const float>(payload.data(), payload.numel()), 1,
            sched::Policy::kMaxThroughput);
        ASSERT_TRUE(outcome.admitted) << "bounded offered load must never shed";
        window.push_back(outcome.ticket);
        max_live = std::max(max_live, server.pool_live());
        if (window.size() == kOutstanding) {
            for (const Ticket& ticket : window) {
                (void)await_result(server, ticket);
                server.release(ticket);
            }
            window.clear();
        }
    }
    server.stop();
    EXPECT_EQ(server.pool_live(), 0U);
    EXPECT_LE(max_live, kOutstanding + 1)
        << "arena occupancy tracks outstanding tickets, not total traffic";
    EXPECT_EQ(server.pool_capacity(), capacity) << "the arena never grows";
}

}  // namespace
