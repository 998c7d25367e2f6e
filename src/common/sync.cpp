#include "common/sync.hpp"

#include <string>

#include "common/error.hpp"

namespace mw {

const char* lock_rank_name(LockRank rank) noexcept {
    switch (rank) {
        case LockRank::kClusterRouter: return "cluster-router";
        case LockRank::kClusterTransport: return "cluster-transport";
        case LockRank::kClusterNode: return "cluster-node";
        case LockRank::kNetFault: return "net-fault";
        case LockRank::kGraphPlanner: return "graph-planner";
        case LockRank::kScheduler: return "scheduler";
        case LockRank::kSnapshotPublish: return "snapshot-publish";
        case LockRank::kRegistry: return "registry";
        case LockRank::kDispatcher: return "dispatcher";
        case LockRank::kFaultInject: return "fault-inject";
        case LockRank::kDevice: return "device";
        case LockRank::kFaultHealth: return "fault-health";
        case LockRank::kAdmission: return "admission";
        case LockRank::kStats: return "stats";
        case LockRank::kPool: return "pool";
        case LockRank::kPoolLoop: return "pool-loop";
        case LockRank::kWorkloadSource: return "workload-source";
        case LockRank::kObs: return "obs";
        case LockRank::kLogger: return "logger";
    }
    return "unknown";
}

#if defined(MW_LOCK_RANK_CHECKS)

namespace detail {
namespace {

/// Per-thread stack of held lock ranks. Deep nesting is a design smell long
/// before it overflows: the full documented chain is 3 locks.
constexpr int kMaxHeldLocks = 16;

struct RankStack {
    LockRank held[kMaxHeldLocks];
    int depth = 0;
};

thread_local RankStack t_ranks;

std::string describe(LockRank rank) {
    return std::string("`") + lock_rank_name(rank) + "` (rank " +
           std::to_string(static_cast<int>(rank)) + ")";
}

}  // namespace

void rank_acquire(LockRank rank) {
    RankStack& s = t_ranks;
    if (s.depth > 0) {
        const LockRank top = s.held[s.depth - 1];
        if (static_cast<int>(rank) <= static_cast<int>(top)) {
            MW_ASSERT_MSG(false,
                          "lock-rank violation: acquiring " + describe(rank) +
                              " while already holding " + describe(top) +
                              "; locks must be acquired in strictly increasing "
                              "rank order (see mw::LockRank in common/sync.hpp)");
        }
    }
    MW_ASSERT_MSG(s.depth < kMaxHeldLocks, "lock-rank stack overflow");
    s.held[s.depth++] = rank;
}

void rank_release(LockRank rank) noexcept {
    RankStack& s = t_ranks;
    // Guards release in LIFO order, but tolerate out-of-order destruction:
    // drop the innermost entry matching `rank`.
    for (int i = s.depth - 1; i >= 0; --i) {
        if (s.held[i] == rank) {
            for (int j = i; j + 1 < s.depth; ++j) s.held[j] = s.held[j + 1];
            --s.depth;
            return;
        }
    }
    MW_ASSERT_MSG(false, std::string("lock-rank bookkeeping: releasing ") +
                             lock_rank_name(rank) + " that this thread does not hold");
}

void rank_assert_held(LockRank rank) noexcept {
    const RankStack& s = t_ranks;
    for (int i = s.depth - 1; i >= 0; --i) {
        if (s.held[i] == rank) return;
    }
    MW_ASSERT_MSG(false, std::string("lock-rank bookkeeping: asserted hold of ") +
                             lock_rank_name(rank) + " which this thread does not hold");
}

}  // namespace detail

#endif  // MW_LOCK_RANK_CHECKS

}  // namespace mw
