// ShardedRequestQueue: the server's one request queue, lock-free. One shard
// per worker, one MpmcRing per policy lane inside each shard; submitters scatter across shards
// round-robin, each worker drains its own shard and, when it runs dry,
// steals from the busiest sibling. Because every lane is a full MPMC ring,
// "steal" is just a pop issued by a non-owner — no extra protocol, and the
// mw::mc steal-vs-pop check (tests/test_mc.cpp) verifies exactly that
// concurrent-dequeuer case on the underlying ring.
//
// Fairness: one lane per policy — pop_lane() lets the worker round-robin
// lanes itself, and steals respect the same lane rotation. A global
// admission counter enforces the exact queue capacity across all shards
// (rings are sized generously; the counter is the contract): try_push fails
// when `capacity` requests are already queued. Reject-oldest eviction needs
// no extra operation: the evicting producer pops a lane head exactly as a
// worker would (the mw::mc evict-vs-pop check covers that race).
//
// The queue carries HotRequest* only — nodes live in the RequestPool; the
// queue never owns or frees them.
//
// The memory-order template parameters are forwarded to the lane rings and
// exist ONLY for the model-check mutation proof (tests/test_mc.cpp), like
// MpmcRing's own. Production code uses the ShardedRequestQueue alias.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/mpmc_ring.hpp"
#include "common/sync.hpp"
#include "serve/request.hpp"
#include "serve/request_pool.hpp"

namespace mw::serve {

/// Smallest power of two >= n (ring sizing).
[[nodiscard]] constexpr std::size_t next_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1U;
    return p;
}

/// Thread safety: every member may be called from any thread concurrently.
template <std::memory_order PublishOrder = std::memory_order_release,
          std::memory_order ConsumeOrder = std::memory_order_acquire>
class BasicShardedRequestQueue {
public:
    BasicShardedRequestQueue(std::size_t shards, std::size_t capacity)
        : capacity_(capacity), shards_(shards) {
        MW_CHECK(shards > 0, "sharded queue needs at least one shard");
        MW_CHECK(capacity > 0, "queue capacity must be positive");
        // Each lane ring can hold the full global capacity: the admission
        // counter (not ring space) enforces the capacity contract, so a burst
        // landing on one shard/lane must never fail a push that the counter
        // admitted. A one-shard queue has no sibling to fall back on (see
        // push_to_sibling), so its rings get twice that: an admitted push
        // then laps onto a claimed-but-unreleased slot only if more than
        // `capacity` other requests were pushed and popped while that one
        // pop sat between its claim and its release.
        const std::size_t ring_slots = next_pow2(shards == 1 ? 2 * capacity : capacity);
        for (Shard& shard : shards_) {
            for (auto& lane : shard.lanes) lane = std::make_unique<Ring>(ring_slots);
        }
    }

    /// Admit a node into `shard`'s lane for its policy (or, when that ring is
    /// momentarily full, the same lane of a sibling shard). Fails (false)
    /// when the queue is closed, the global capacity is reached, or every
    /// shard's ring for the lane is full; the node is then untouched and
    /// stays owned by the caller.
    [[nodiscard]] bool try_push(std::size_t shard, HotRequest* node) {
        MW_DCHECK(shard < shards_.size(), "shard index out of range");
        MW_DCHECK(node != nullptr, "try_push(nullptr)");
        if (closed_.load(std::memory_order_acquire)) return false;
        // Reserve a capacity slot first, then find ring space for it.
        std::size_t total = total_.load(std::memory_order_relaxed);  // relaxed: CAS below owns the slot handoff
        for (;;) {
            if (total >= capacity_) return false;
            if (total_.compare_exchange_weak(total, total + 1, std::memory_order_acq_rel,
                                             std::memory_order_relaxed)) {  // relaxed: failure just retries with the fresh count
                break;
            }
        }
        Shard& s = shards_[shard];
        const std::size_t lane = lane_of(node->policy);
        if (!s.lanes[lane]->try_push(node)) return push_to_sibling(shard, lane, node);
        s.size.fetch_add(1, std::memory_order_release);
        return true;
    }

    /// Pop the head of one lane of one shard (owner fast path, and the
    /// reject-oldest eviction). Returns nullptr when that lane is empty.
    [[nodiscard]] HotRequest* pop_lane(std::size_t shard, std::size_t lane) {
        MW_DCHECK(shard < shards_.size() && lane < kPolicyLanes, "pop_lane out of range");
        Shard& s = shards_[shard];
        HotRequest* node = nullptr;
        if (!s.lanes[lane]->try_pop(node)) return nullptr;
        s.size.fetch_sub(1, std::memory_order_release);
        total_.fetch_sub(1, std::memory_order_acq_rel);
        return node;
    }

    /// Steal from the busiest sibling of `thief_shard`: scans the other
    /// shards' approximate sizes, then tries the victim's lanes starting at
    /// `lane_hint` (the thief's own rotation cursor, preserving lane
    /// fairness). Returns nullptr when every sibling is empty.
    [[nodiscard]] HotRequest* steal(std::size_t thief_shard, std::size_t lane_hint) {
        // Victim selection: busiest sibling by approximate size. The sizes are
        // fuzzy (clamped, racy) — that only costs steal efficiency, never
        // correctness, since the pop itself is ring-synchronised.
        std::size_t victim = shards_.size();
        std::size_t victim_size = 0;
        for (std::size_t i = 0; i < shards_.size(); ++i) {
            if (i == thief_shard) continue;
            const std::size_t size = shard_size(i);
            if (size > victim_size) {
                victim = i;
                victim_size = size;
            }
        }
        if (victim == shards_.size()) return nullptr;
        for (std::size_t probe = 0; probe < kPolicyLanes; ++probe) {
            if (HotRequest* node = pop_lane(victim, (lane_hint + probe) % kPolicyLanes)) {
                return node;
            }
        }
        return nullptr;
    }

    /// Close the queue: subsequent try_push fails. Queued nodes remain
    /// poppable/drainable. Idempotent.
    void close() { closed_.store(true, std::memory_order_release); }
    [[nodiscard]] bool closed() const {
        return closed_.load(std::memory_order_acquire);
    }

    /// Pop everything still queued, in shard/lane order (shutdown drain).
    [[nodiscard]] std::vector<HotRequest*> drain() {
        std::vector<HotRequest*> out;
        for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
            for (std::size_t lane = 0; lane < kPolicyLanes; ++lane) {
                while (HotRequest* node = pop_lane(shard, lane)) out.push_back(node);
            }
        }
        return out;
    }

    /// Exact queued count (the admission counter, not a ring scan).
    [[nodiscard]] std::size_t size() const {
        return total_.load(std::memory_order_acquire);
    }
    [[nodiscard]] bool empty() const { return size() == 0; }

    /// Approximate per-shard occupancy (steal victim selection, stats).
    [[nodiscard]] std::size_t shard_size(std::size_t shard) const {
        return shards_[shard].size.load(std::memory_order_acquire);
    }

    /// Approximate per-lane occupancy across all shards (queue-depth gauges).
    [[nodiscard]] std::size_t lane_size(sched::Policy policy) const {
        std::size_t total = 0;
        for (const Shard& shard : shards_) total += shard.lanes[lane_of(policy)]->size();
        return total;
    }

    [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
    [[nodiscard]] std::size_t capacity() const { return capacity_; }

private:
    using Ring = MpmcRing<HotRequest*, PublishOrder, ConsumeOrder>;

    /// try_push's failure branch. The lane ring can report full although
    /// the counter admitted the node: the push lapped onto a slot whose pop
    /// has claimed but not yet released it (the mw::mc evict-vs-pop checks
    /// reach it). The same lane of a sibling shard then takes the node; only
    /// when every shard's ring is stalled that way does the reserved slot
    /// roll back and the caller refuse. A one-shard queue relies on its ring
    /// slack instead. It never blocks. Out of line so the admission fast
    /// path stays small enough to inline.
    [[nodiscard, gnu::noinline]] bool push_to_sibling(std::size_t shard, std::size_t lane,
                                                      HotRequest* node) {
        for (std::size_t step = 1; step < shards_.size(); ++step) {
            Shard& sibling = shards_[(shard + step) % shards_.size()];
            if (sibling.lanes[lane]->try_push(node)) {
                sibling.size.fetch_add(1, std::memory_order_release);
                return true;
            }
        }
        total_.fetch_sub(1, std::memory_order_acq_rel);
        return false;
    }

    /// One worker's sub-queue: a ring per policy lane plus an approximate
    /// occupancy counter for steal-victim selection. Padded so neighbouring
    /// shards' counters never share a line.
    struct alignas(kCacheLineBytes) Shard {
        std::array<std::unique_ptr<Ring>, kPolicyLanes> lanes;
        Atomic<std::size_t> size{0};
    };

    const std::size_t capacity_;
    std::vector<Shard> shards_;
    alignas(kCacheLineBytes) Atomic<std::size_t> total_{0};
    alignas(kCacheLineBytes) Atomic<bool> closed_{false};
};

using ShardedRequestQueue = BasicShardedRequestQueue<>;

}  // namespace mw::serve
