// MpmcRing: a bounded multi-producer/multi-consumer ring buffer in the
// Vyukov style — the per-lane storage of the serving hot path. "Steal" is
// just a dequeue issued by a non-owner thread: the per-slot sequence numbers
// make every dequeue safe against every other, so work-stealing needs no
// extra protocol on top.
//
// Protocol: each slot carries a sequence counter. A slot is free for the
// producer at position `pos` when seq == pos, and holds data for the
// consumer at position `pos` when seq == pos + 1. Producers claim a
// position with a CAS on enqueue_pos_, write the slot, then publish by
// storing seq = pos + 1 with release; consumers claim with a CAS on
// dequeue_pos_, read the slot after an acquire load of seq, then retire it
// by storing seq = pos + capacity with release (free for the next lap).
// The acquire/release pair on `seq` is the only synchronisation the
// non-atomic slot payload needs.
//
// The memory-order template parameters exist ONLY for the model-check
// mutation proof (tests instantiate a relaxed-order variant and assert the
// checker reports the slot race — see tests/test_mc.cpp and DESIGN.md §15).
// Production code must use the default orders.
//
// T must be default-constructible and movable. Capacity is a power of two.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/sync.hpp"

namespace mw {

template <typename T,
          std::memory_order PublishOrder = std::memory_order_release,
          std::memory_order ConsumeOrder = std::memory_order_acquire>
class MpmcRing {
public:
    explicit MpmcRing(std::size_t capacity)
        : slots_(std::make_unique<Slot[]>(capacity)), mask_(capacity - 1) {
        MW_CHECK(capacity > 0 && (capacity & (capacity - 1)) == 0,
                 "MpmcRing: capacity must be a power of two");
        for (std::size_t i = 0; i < capacity; ++i) {
            slots_[i].seq.store(i, std::memory_order_relaxed);  // relaxed: pre-publication init, no readers yet
        }
    }

    MpmcRing(const MpmcRing&) = delete;
    MpmcRing& operator=(const MpmcRing&) = delete;

    /// Any thread. False when the ring is full.
    [[nodiscard]] bool try_push(T value) {
        std::size_t pos = enqueue_pos_.load(std::memory_order_relaxed);  // relaxed: CAS below re-validates via seq
        for (;;) {
            Slot& slot = slots_[pos & mask_];
            const std::size_t seq = slot.seq.load(ConsumeOrder);
            const auto dif = static_cast<std::ptrdiff_t>(seq) - static_cast<std::ptrdiff_t>(pos);
            if (dif == 0) {
                if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                                       std::memory_order_relaxed,   // relaxed: slot handoff synchronises via seq
                                                       std::memory_order_relaxed)) {  // relaxed: failure just retries with the fresh pos
                    MW_MC_RACE_WRITE(&slot.value, "MpmcRing slot (push)");
                    slot.value = std::move(value);
                    slot.seq.store(pos + 1, PublishOrder);
                    return true;
                }
            } else if (dif < 0) {
                return false;  // slot still occupied from the previous lap: full
            } else {
                pos = enqueue_pos_.load(std::memory_order_relaxed);  // relaxed: lost the claim race, reread and retry
            }
        }
    }

    /// Any thread — owner pop and sibling steal are the same operation.
    /// False when the ring is empty.
    [[nodiscard]] bool try_pop(T& out) {
        std::size_t pos = dequeue_pos_.load(std::memory_order_relaxed);  // relaxed: CAS below re-validates via seq
        for (;;) {
            Slot& slot = slots_[pos & mask_];
            const std::size_t seq = slot.seq.load(ConsumeOrder);
            const auto dif =
                static_cast<std::ptrdiff_t>(seq) - static_cast<std::ptrdiff_t>(pos + 1);
            if (dif == 0) {
                if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                                       std::memory_order_relaxed,   // relaxed: slot handoff synchronises via seq
                                                       std::memory_order_relaxed)) {  // relaxed: failure just retries with the fresh pos
                    MW_MC_RACE_READ(&slot.value, "MpmcRing slot (pop)");
                    out = std::move(slot.value);
                    slot.seq.store(pos + mask_ + 1, PublishOrder);
                    return true;
                }
            } else if (dif < 0) {
                return false;  // slot not yet published: empty
            } else {
                pos = dequeue_pos_.load(std::memory_order_relaxed);  // relaxed: lost the claim race, reread and retry
            }
        }
    }

    /// Approximate occupancy: the two cursors are loaded separately while
    /// other threads advance them, so the raw difference can transiently
    /// wrap or overshoot; clamped to [0, capacity()].
    [[nodiscard]] std::size_t size() const {
        const std::size_t enq = enqueue_pos_.load(std::memory_order_acquire);
        const std::size_t deq = dequeue_pos_.load(std::memory_order_acquire);
        const std::size_t diff = enq - deq;
        if (diff > mask_ + 1) return (diff > (~std::size_t{0} >> 1)) ? 0 : mask_ + 1;
        return diff;
    }

    [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }

private:
    // One slot per cache line: producers and consumers touch adjacent slots
    // continuously, and the seq stores are the contended writes.
    struct alignas(kCacheLineBytes) Slot {
        Atomic<std::size_t> seq{0};
        T value{};
    };

    std::unique_ptr<Slot[]> slots_;
    std::size_t mask_;

    alignas(kCacheLineBytes) Atomic<std::size_t> enqueue_pos_{0};
    alignas(kCacheLineBytes) Atomic<std::size_t> dequeue_pos_{0};
};

}  // namespace mw
