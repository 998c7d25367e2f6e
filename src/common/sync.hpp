// Synchronisation primitives with compile-time lock discipline.
//
// Every lock in the tree is one of the wrappers below, never a raw standard
// primitive (mw-analyze: raw-sync-primitive). The wrappers carry two layers of
// checking:
//
//  1. Clang Thread Safety Analysis capability attributes (the MW_* macros).
//     Under `clang++ -Wthread-safety` (CMake: -DMW_THREAD_SAFETY=ON, CI job
//     `clang-thread-safety`) every read/write of a MW_GUARDED_BY member is
//     verified against the locks actually held at compile time. Under other
//     compilers the attributes expand to nothing.
//  2. A runtime lock-rank validator (CMake: MW_LOCK_RANK_CHECKS, default ON).
//     The static analysis is per-object and cannot see cross-object
//     acquisition order — the classic Device AB-BA inversion between two
//     peers of one memory domain is invisible to it. So every mw::Mutex /
//     mw::SharedMutex carries a LockRank, and a thread-local rank stack
//     aborts (naming both ranks) the moment any thread acquires a lock whose
//     rank is not strictly greater than everything it already holds. The
//     repo's global lock order lives in the LockRank enum, in code, not in
//     prose. See DESIGN.md §9.
//
// Blocking waits go through mw::CondVar, which takes the RAII guard (so the
// analysis knows the lock is held across the wait) and double-seconds
// timeouts (so std::chrono stays confined to the two sanctioned conversion
// points, common/timer.hpp and this header).
//
// Atomics carry the same discipline (mw-analyze: raw-atomic): every atomic in
// the tree is an mw::Atomic<T> / mw::AtomicFlag, never a raw std::atomic.
// In normal builds the wrappers are zero-overhead passthroughs. Under
// -DMW_MODEL_CHECK every wrapper operation (atomics AND lock acquisitions)
// becomes a scheduling point of the mw::mc model checker: managed test
// threads are serialized and the checker explores their interleavings,
// while a vector-clock tracker verifies that the memory orders actually
// written establish the happens-before edges the code relies on. See
// src/mc/mc.hpp and DESIGN.md §12.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "mc/hooks.hpp"

// --- Clang Thread Safety Analysis attribute macros -------------------------
// No-ops under non-Clang compilers; see
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html for semantics.
#if defined(__clang__)
#define MW_TS_ATTRIBUTE(x) __attribute__((x))
#else
#define MW_TS_ATTRIBUTE(x)
#endif

#define MW_CAPABILITY(x) MW_TS_ATTRIBUTE(capability(x))
#define MW_SCOPED_CAPABILITY MW_TS_ATTRIBUTE(scoped_lockable)
#define MW_GUARDED_BY(x) MW_TS_ATTRIBUTE(guarded_by(x))
#define MW_PT_GUARDED_BY(x) MW_TS_ATTRIBUTE(pt_guarded_by(x))
#define MW_ACQUIRE(...) MW_TS_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define MW_ACQUIRE_SHARED(...) \
    MW_TS_ATTRIBUTE(acquire_shared_capability(__VA_ARGS__))
#define MW_RELEASE(...) MW_TS_ATTRIBUTE(release_capability(__VA_ARGS__))
#define MW_RELEASE_SHARED(...) \
    MW_TS_ATTRIBUTE(release_shared_capability(__VA_ARGS__))
#define MW_REQUIRES(...) MW_TS_ATTRIBUTE(requires_capability(__VA_ARGS__))
#define MW_REQUIRES_SHARED(...) \
    MW_TS_ATTRIBUTE(requires_shared_capability(__VA_ARGS__))
#define MW_EXCLUDES(...) MW_TS_ATTRIBUTE(locks_excluded(__VA_ARGS__))
#define MW_TRY_ACQUIRE(...) MW_TS_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))
#define MW_ASSERT_CAPABILITY(x) MW_TS_ATTRIBUTE(assert_capability(x))
#define MW_ASSERT_SHARED_CAPABILITY(x) \
    MW_TS_ATTRIBUTE(assert_shared_capability(x))
#define MW_RETURN_CAPABILITY(x) MW_TS_ATTRIBUTE(lock_returned(x))
#define MW_NO_THREAD_SAFETY_ANALYSIS MW_TS_ATTRIBUTE(no_thread_safety_analysis)

namespace mw {

// The wrapped standard primitives are named through this alias so that a
// plain grep for raw sync primitives stays clean even in this file — the
// wrappers below are the one sanctioned home of the standard types.
// mw-analyze's raw-sync-primitive and raw-atomic rules match `stdsync::`
// like `std::`, so the alias hides nothing outside this header.
namespace stdsync = ::std;

/// The repo's global lock order, smallest first. A thread may only acquire a
/// lock whose rank is STRICTLY greater than every lock it already holds —
/// same-rank nesting (e.g. two Devices) is a violation too, which is exactly
/// the AB-BA hazard between memory-domain peers; peers read each other
/// through atomics instead (see Device::busy_until).
///
/// Documented chains that consume this order:
///   scheduler -> registry -> device        (Server serialises decide(), which
///                                           probes device clock state)
///   registry  -> device                    (DeviceRegistry::add wires peers,
///                                           load_model_everywhere loads)
///   cluster-router -> cluster-transport -> net-fault
///                                          (Router::submit keeps its pending
///                                           table locked across the send so a
///                                           response cannot race the insert)
///   cluster-node -> admission -> ...       (Node::handle_frame holds its
///                                           completion queue across
///                                           Server::submit, whose
///                                           deadline-shed check reads the
///                                           admission EWMA table)
/// Everything else is acquired with nothing held. New mutexes slot in at the
/// loosest rank that keeps their acquisition chains monotone; leaf locks that
/// are never held across calls into other components go late (logger last,
/// so any locked region may log). The cluster tier sits ABOVE (i.e. ranks
/// below) the whole single-node stack: a cluster lock may be held while
/// entering serve, never the reverse.
///
/// mw-analyze:rank-table — this enum is the machine-readable lock order:
/// `tools/analyze` (mw-analyze) parses the enumerators and values below and
/// verifies at build time that every held-while-acquiring edge in the whole
/// program strictly increases in rank. Renaming or renumbering entries
/// changes what that checker enforces.
enum class LockRank : int {
    kClusterRouter = 2,    ///< cluster::Router pending-request table
    kClusterTransport = 4, ///< cluster::Transport in-flight frame heap
    kClusterNode = 6,      ///< cluster::Node completion queue
    kNetFault = 8,         ///< fault::NetFaultInjector link streams/partition
    kGraphPlanner = 9,     ///< graph::GraphPlanner plan cache; held while
                           ///< snapshotting registry/device state, so it sits
                           ///< below the whole single-node scheduling stack
    kScheduler = 10,       ///< serve::Server's OnlineScheduler serialisation
    kSnapshotPublish = 15, ///< EpochCell writer serialisation (scheduler snapshots)
    kRegistry = 20,        ///< device::DeviceRegistry device table
    kDispatcher = 30,      ///< sched::Dispatcher model table
    kFaultInject = 35,     ///< fault::FaultInjector per-device fault streams
    kDevice = 40,          ///< device::Device internal state
    kFaultHealth = 45,     ///< fault::DeviceHealthTracker breaker/EWMA table
    kAdmission = 60,       ///< serve::AdmissionController EWMA table
    kStats = 70,           ///< serve::ServerStats counters/histograms
    kPool = 80,            ///< ThreadPool task queue
    kPoolLoop = 90,        ///< ThreadPool parallel_for completion latch
    kWorkloadSource = 100, ///< workload::InputSource cursors
    kObs = 105,            ///< obs::TraceRecorder ring registration/snapshot
    kLogger = 110,         ///< log sink (last: any locked region may log)
};

/// Human-readable name of a rank (used in violation reports and tests).
[[nodiscard]] const char* lock_rank_name(LockRank rank) noexcept;

namespace detail {

#if defined(MW_LOCK_RANK_CHECKS)
/// Validate `rank` against the calling thread's held-lock stack and push it.
/// Aborts (via MW_ASSERT_MSG, naming both ranks) on a violation.
void rank_acquire(LockRank rank);
/// Pop `rank` from the calling thread's stack (innermost match).
void rank_release(LockRank rank) noexcept;
/// Abort unless the calling thread holds a lock of `rank`.
void rank_assert_held(LockRank rank) noexcept;
#else
inline void rank_acquire(LockRank) {}
inline void rank_release(LockRank) noexcept {}
inline void rank_assert_held(LockRank) noexcept {}
#endif

/// Scoped rank bookkeeping. Construction validates + pushes BEFORE the
/// caller blocks on the underlying lock, so an ordering violation aborts
/// with a report instead of deadlocking; destruction pops. Guards declare a
/// RankGuard before their lock member so the check precedes the acquire and
/// the pop follows the release.
class RankGuard {
public:
    explicit RankGuard(LockRank rank) : rank_(rank) { rank_acquire(rank_); }
    ~RankGuard() { rank_release(rank_); }

    RankGuard(const RankGuard&) = delete;
    RankGuard& operator=(const RankGuard&) = delete;

private:
    LockRank rank_;
};

/// Map a std::memory_order onto the four orders the model checker's
/// happens-before tracker distinguishes (consume is treated as acquire,
/// seq_cst as acq_rel — the serialized model-check run supplies the total
/// order seq_cst would otherwise add).
[[nodiscard]] constexpr mc::Ordering mc_order(stdsync::memory_order order) noexcept {
    switch (order) {
        case stdsync::memory_order_relaxed: return mc::Ordering::kRelaxed;
        case stdsync::memory_order_consume:
        case stdsync::memory_order_acquire: return mc::Ordering::kAcquire;
        case stdsync::memory_order_release: return mc::Ordering::kRelease;
        default: return mc::Ordering::kAcqRel;
    }
}

}  // namespace detail

// Instrumented operations cannot be unconditionally noexcept: under
// -DMW_MODEL_CHECK a recorded failure (assertion, race, deadlock, step
// budget) unwinds the managed thread by throwing the scheduler's internal
// AbortSchedule exception through the hook call. Normal builds keep the
// std::atomic noexcept guarantee.
#if defined(MW_MODEL_CHECK)
#define MW_SYNC_NOEXCEPT
#else
#define MW_SYNC_NOEXCEPT noexcept
#endif

/// Drop-in replacement for std::atomic<T> (the explicit-call subset: load /
/// store / exchange / compare_exchange / fetch_add / fetch_sub — no implicit
/// conversions, so every access is visible at the call site). Zero-overhead
/// passthrough in normal builds; under -DMW_MODEL_CHECK each operation is a
/// scheduling point and feeds the happens-before tracker, so the model
/// checker both explores interleavings across it and verifies that the
/// memory order written here really synchronizes what the code thinks it
/// does. Raw std::atomic outside this header is an mw-analyze error
/// (raw-atomic).
template <typename T>
class Atomic {
public:
    constexpr Atomic() noexcept : v_{} {}
    constexpr Atomic(T value) noexcept : v_(value) {}  // implicit, like std::atomic

    Atomic(const Atomic&) = delete;
    Atomic& operator=(const Atomic&) = delete;

    [[nodiscard]] T load(stdsync::memory_order order =
                             stdsync::memory_order_seq_cst) const MW_SYNC_NOEXCEPT {
        hook_point(mc::Op::kAtomicLoad, order);
        const T value = v_.load(order);
        hook_applied(mc::Op::kAtomicLoad, order, /*did_store=*/false);
        return value;
    }

    void store(T value, stdsync::memory_order order =
                            stdsync::memory_order_seq_cst) MW_SYNC_NOEXCEPT {
        hook_point(mc::Op::kAtomicStore, order);
        v_.store(value, order);
        hook_applied(mc::Op::kAtomicStore, order, /*did_store=*/true);
    }

    T exchange(T value, stdsync::memory_order order =
                            stdsync::memory_order_seq_cst) MW_SYNC_NOEXCEPT {
        hook_point(mc::Op::kAtomicRmw, order);
        const T previous = v_.exchange(value, order);
        hook_applied(mc::Op::kAtomicRmw, order, /*did_store=*/true);
        return previous;
    }

    bool compare_exchange_weak(T& expected, T desired, stdsync::memory_order success,
                               stdsync::memory_order failure) MW_SYNC_NOEXCEPT {
        hook_point(mc::Op::kAtomicRmw, success);
        const bool swapped = v_.compare_exchange_weak(expected, desired, success, failure);
        hook_applied(mc::Op::kAtomicRmw, swapped ? success : failure, swapped);
        return swapped;
    }
    bool compare_exchange_weak(T& expected, T desired,
                               stdsync::memory_order order =
                                   stdsync::memory_order_seq_cst) MW_SYNC_NOEXCEPT {
        return compare_exchange_weak(expected, desired, order, cas_failure_order(order));
    }

    bool compare_exchange_strong(T& expected, T desired, stdsync::memory_order success,
                                 stdsync::memory_order failure) MW_SYNC_NOEXCEPT {
        hook_point(mc::Op::kAtomicRmw, success);
        const bool swapped =
            v_.compare_exchange_strong(expected, desired, success, failure);
        hook_applied(mc::Op::kAtomicRmw, swapped ? success : failure, swapped);
        return swapped;
    }
    bool compare_exchange_strong(T& expected, T desired,
                                 stdsync::memory_order order =
                                     stdsync::memory_order_seq_cst) MW_SYNC_NOEXCEPT {
        return compare_exchange_strong(expected, desired, order, cas_failure_order(order));
    }

    /// Arg is a template so the member only instantiates where std::atomic
    /// supports it (integral + floating T: T; pointer T: ptrdiff_t).
    template <typename Arg>
    T fetch_add(Arg arg, stdsync::memory_order order =
                             stdsync::memory_order_seq_cst) MW_SYNC_NOEXCEPT {
        hook_point(mc::Op::kAtomicRmw, order);
        const T previous = v_.fetch_add(arg, order);
        hook_applied(mc::Op::kAtomicRmw, order, /*did_store=*/true);
        return previous;
    }
    template <typename Arg>
    T fetch_sub(Arg arg, stdsync::memory_order order =
                             stdsync::memory_order_seq_cst) MW_SYNC_NOEXCEPT {
        hook_point(mc::Op::kAtomicRmw, order);
        const T previous = v_.fetch_sub(arg, order);
        hook_applied(mc::Op::kAtomicRmw, order, /*did_store=*/true);
        return previous;
    }

private:
    [[nodiscard]] static constexpr stdsync::memory_order cas_failure_order(
        stdsync::memory_order success) noexcept {
        // Same demotion std::atomic's one-order CAS overload performs.
        switch (success) {
            case stdsync::memory_order_acq_rel: return stdsync::memory_order_acquire;
            case stdsync::memory_order_release: return stdsync::memory_order_relaxed;
            default: return success;
        }
    }

    void hook_point(mc::Op op, stdsync::memory_order order) const MW_SYNC_NOEXCEPT {
#if defined(MW_MODEL_CHECK)
        mc::atomic_point(this, op, detail::mc_order(order), nullptr);
#else
        (void)op;
        (void)order;
#endif
    }
    void hook_applied(mc::Op op, stdsync::memory_order order,
                      bool did_store) const MW_SYNC_NOEXCEPT {
#if defined(MW_MODEL_CHECK)
        mc::atomic_applied(this, op, detail::mc_order(order), did_store);
#else
        (void)op;
        (void)order;
        (void)did_store;
#endif
    }

    mutable stdsync::atomic<T> v_;
};

/// std::atomic_flag replacement with the same model-check instrumentation
/// (built on atomic<bool> so it also supports a plain test()).
class AtomicFlag {
public:
    constexpr AtomicFlag() noexcept = default;

    AtomicFlag(const AtomicFlag&) = delete;
    AtomicFlag& operator=(const AtomicFlag&) = delete;

    bool test_and_set(stdsync::memory_order order =
                          stdsync::memory_order_seq_cst) MW_SYNC_NOEXCEPT {
        return v_.exchange(true, order);
    }
    void clear(stdsync::memory_order order = stdsync::memory_order_seq_cst) MW_SYNC_NOEXCEPT {
        v_.store(false, order);
    }
    [[nodiscard]] bool test(stdsync::memory_order order =
                                stdsync::memory_order_seq_cst) const MW_SYNC_NOEXCEPT {
        return v_.load(order);
    }

private:
    Atomic<bool> v_{false};
};

/// Exclusive mutex with a lock rank. Locking is RAII-only (MutexLock);
/// there is deliberately no public lock()/unlock().
class MW_CAPABILITY("mutex") Mutex {
public:
    explicit constexpr Mutex(LockRank rank) noexcept : rank_(rank) {}

    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

    [[nodiscard]] LockRank rank() const noexcept { return rank_; }

    /// Tell the static analysis (and the rank validator) that the calling
    /// thread holds this mutex. Needed inside CondVar wait predicates, which
    /// the analysis sees as separate functions.
    void assert_held() const MW_ASSERT_CAPABILITY(this) {
        detail::rank_assert_held(rank_);
    }

private:
    friend class MutexLock;
    friend class CondVar;

    mutable stdsync::mutex m_;
    LockRank rank_;
};

/// Reader-writer mutex with a lock rank. RAII-only (WriterLock/ReaderLock).
class MW_CAPABILITY("shared_mutex") SharedMutex {
public:
    explicit SharedMutex(LockRank rank) noexcept : rank_(rank) {}

    SharedMutex(const SharedMutex&) = delete;
    SharedMutex& operator=(const SharedMutex&) = delete;

    [[nodiscard]] LockRank rank() const noexcept { return rank_; }

    void assert_held() const MW_ASSERT_CAPABILITY(this) {
        detail::rank_assert_held(rank_);
    }
    void assert_held_shared() const MW_ASSERT_SHARED_CAPABILITY(this) {
        detail::rank_assert_held(rank_);
    }

private:
    friend class WriterLock;
    friend class ReaderLock;

    mutable std::shared_mutex m_;
    LockRank rank_;
};

/// RAII exclusive lock on a Mutex (the only way to lock one).
///
/// Under -DMW_MODEL_CHECK a managed thread acquires cooperatively: it spins
/// on try_lock, yielding to the checker's scheduler between attempts, so a
/// contended lock blocks only in simulation (never the real thread — which
/// would wedge the serialized execution) and lock/unlock build the same
/// happens-before edges the race detector consumes.
class MW_SCOPED_CAPABILITY MutexLock {
public:
    explicit MutexLock(Mutex& mu) MW_ACQUIRE(mu)
        : rank_(mu.rank_), ul_(mu.m_, stdsync::defer_lock) {
#if defined(MW_MODEL_CHECK)
        if (mc::managed()) {
            mc_addr_ = &mu;
            mc::mutex_lock(
                mc_addr_, /*shared=*/false,
                [](void* lock) {
                    return static_cast<stdsync::unique_lock<stdsync::mutex>*>(lock)
                        ->try_lock();
                },
                &ul_, "mw::Mutex");
            return;
        }
#endif
        ul_.lock();
    }
    ~MutexLock() MW_RELEASE() {
#if defined(MW_MODEL_CHECK)
        // Runs before ul_'s destructor performs the real unlock; the checker
        // does not yield in between, so no managed thread sees the window.
        if (mc_addr_ != nullptr && mc::managed()) {
            mc::mutex_unlock(mc_addr_, /*shared=*/false);
        }
#endif
    }

    MutexLock(const MutexLock&) = delete;
    MutexLock& operator=(const MutexLock&) = delete;

private:
    friend class CondVar;

    // Order matters: the rank check runs before the (potentially blocking)
    // acquire, and the rank pop runs after the unlock.
    detail::RankGuard rank_;
    stdsync::unique_lock<stdsync::mutex> ul_;
#if defined(MW_MODEL_CHECK)
    const void* mc_addr_ = nullptr;
#endif
};

/// RAII exclusive lock on a SharedMutex (cooperative under MW_MODEL_CHECK,
/// exactly like MutexLock).
class MW_SCOPED_CAPABILITY WriterLock {
public:
    explicit WriterLock(SharedMutex& mu) MW_ACQUIRE(mu)
        : rank_(mu.rank_), ul_(mu.m_, stdsync::defer_lock) {
#if defined(MW_MODEL_CHECK)
        if (mc::managed()) {
            mc_addr_ = &mu;
            mc::mutex_lock(
                mc_addr_, /*shared=*/false,
                [](void* lock) {
                    return static_cast<stdsync::unique_lock<stdsync::shared_mutex>*>(lock)
                        ->try_lock();
                },
                &ul_, "mw::SharedMutex(writer)");
            return;
        }
#endif
        ul_.lock();
    }
    ~WriterLock() MW_RELEASE() {
#if defined(MW_MODEL_CHECK)
        if (mc_addr_ != nullptr && mc::managed()) {
            mc::mutex_unlock(mc_addr_, /*shared=*/false);
        }
#endif
    }

    WriterLock(const WriterLock&) = delete;
    WriterLock& operator=(const WriterLock&) = delete;

private:
    detail::RankGuard rank_;
    std::unique_lock<std::shared_mutex> ul_;
#if defined(MW_MODEL_CHECK)
    const void* mc_addr_ = nullptr;
#endif
};

/// RAII shared (reader) lock on a SharedMutex (cooperative under
/// MW_MODEL_CHECK; reader-reader concurrency is preserved in simulation
/// because try_lock_shared succeeds alongside other readers).
class MW_SCOPED_CAPABILITY ReaderLock {
public:
    explicit ReaderLock(SharedMutex& mu) MW_ACQUIRE_SHARED(mu)
        : rank_(mu.rank_), sl_(mu.m_, stdsync::defer_lock) {
#if defined(MW_MODEL_CHECK)
        if (mc::managed()) {
            mc_addr_ = &mu;
            mc::mutex_lock(
                mc_addr_, /*shared=*/true,
                [](void* lock) {
                    return static_cast<stdsync::shared_lock<stdsync::shared_mutex>*>(lock)
                        ->try_lock();
                },
                &sl_, "mw::SharedMutex(reader)");
            return;
        }
#endif
        sl_.lock();
    }
    ~ReaderLock() MW_RELEASE() {
#if defined(MW_MODEL_CHECK)
        if (mc_addr_ != nullptr && mc::managed()) {
            mc::mutex_unlock(mc_addr_, /*shared=*/true);
        }
#endif
    }

    ReaderLock(const ReaderLock&) = delete;
    ReaderLock& operator=(const ReaderLock&) = delete;

private:
    detail::RankGuard rank_;
    std::shared_lock<std::shared_mutex> sl_;
#if defined(MW_MODEL_CHECK)
    const void* mc_addr_ = nullptr;
#endif
};

/// Condition variable bound to mw::Mutex. Waits take the RAII guard, so the
/// analysis treats the lock as held for the whole wait (the predicate runs
/// with it held; start predicates with `mutex_.assert_held()` so the lambda
/// body — a separate function to the analysis — sees the capability too).
class CondVar {
public:
    CondVar() = default;

    CondVar(const CondVar&) = delete;
    CondVar& operator=(const CondVar&) = delete;

    void notify_one() noexcept { cv_.notify_one(); }
    void notify_all() noexcept { cv_.notify_all(); }

    /// Block until pred() holds.
    ///
    /// Under MW_MODEL_CHECK a managed thread waits by releasing the lock,
    /// yielding to the checker's scheduler, re-acquiring, and re-checking —
    /// a spin model that covers every notify interleaving (including
    /// spurious wakeups) at the cost of masking lost-notify bugs; the
    /// per-schedule step budget converts a never-true predicate into a
    /// reported livelock. See DESIGN.md §12.
    template <typename Predicate>
    void wait(MutexLock& lock, Predicate pred) {
#if defined(MW_MODEL_CHECK)
        if (mc::managed()) {
            while (!pred()) {
                mc_unlock_relock(lock);
            }
            return;
        }
#endif
        cv_.wait(lock.ul_, std::move(pred));
    }

    /// Block until pred() holds or `seconds` elapsed; returns pred()'s final
    /// value. seconds <= 0 evaluates pred once without blocking.
    ///
    /// Under MW_MODEL_CHECK (managed threads) the timeout is modeled as
    /// expiring after a single yield — a legal timing the caller must
    /// already handle — so timed waits cannot blow up the schedule space.
    template <typename Predicate>
    bool wait_for(MutexLock& lock, double seconds, Predicate pred) {
        if (seconds <= 0.0) return pred();
#if defined(MW_MODEL_CHECK)
        if (mc::managed()) {
            if (pred()) return true;
            mc_unlock_relock(lock);
            return pred();
        }
#endif
        return cv_.wait_for(lock.ul_, std::chrono::duration<double>(seconds),
                            std::move(pred));
    }

private:
#if defined(MW_MODEL_CHECK)
    /// One wait step of the managed spin model: release, yield, re-acquire.
    /// The RankGuard stays pushed across the gap — same approximation the
    /// real condition_variable wait path has always had.
    static void mc_unlock_relock(MutexLock& lock) {
        mc::mutex_unlock(lock.mc_addr_, /*shared=*/false);
        lock.ul_.unlock();
        mc::yield_point("condvar-wait");
        mc::mutex_lock(
            lock.mc_addr_, /*shared=*/false,
            [](void* raw) {
                return static_cast<stdsync::unique_lock<stdsync::mutex>*>(raw)
                    ->try_lock();
            },
            &lock.ul_, "condvar-relock");
    }
#endif

    stdsync::condition_variable cv_;
};

}  // namespace mw

// Non-atomic shared-memory access annotations for the model checker's race
// detector. Place at raw reads/writes that a lock-free protocol publishes
// via an mw::Atomic (e.g. ring-buffer slots): a pair of annotated accesses
// from two managed threads with no happens-before edge between them fails
// the schedule with both sites named. Compile to nothing outside
// -DMW_MODEL_CHECK; `label` must be a string literal.
#if defined(MW_MODEL_CHECK)
#define MW_MC_RACE_READ(addr, label) ::mw::mc::race_read((addr), (label))
#define MW_MC_RACE_WRITE(addr, label) ::mw::mc::race_write((addr), (label))
#define MW_MC_YIELD(label) ::mw::mc::yield_point((label))
#else
#define MW_MC_RACE_READ(addr, label) (static_cast<void>(0))
#define MW_MC_RACE_WRITE(addr, label) (static_cast<void>(0))
#define MW_MC_YIELD(label) (static_cast<void>(0))
#endif
