// mw::mc — a deterministic, schedule-exploring concurrency model checker in
// the spirit of loom/relacy, sized for the handful of lock-free protocols in
// this repo (the obs span ring, the breaker half-open gate, the server
// lifecycle flags, the serving hot path's MPMC ring and epoch cell).
//
// How it works (see DESIGN.md §12 for the full story):
//
//  * Under -DMW_MODEL_CHECK, every mw::Atomic / mw::Mutex operation is a
//    *scheduling point*: the running thread hands control to the checker,
//    which picks which managed thread runs next. Exactly one managed thread
//    runs at a time, so an execution is a total order of operations — a
//    schedule — and is a pure function of the sequence of picks.
//  * Exhaustive mode enumerates schedules by DFS over the pick tree with a
//    preemption bound (switching away from a still-runnable thread costs
//    one preemption; CHESS-style, most bugs need <= 2). Small protocols
//    fully exhaust; Result::exhausted says so.
//  * Random mode samples seeded schedules for state spaces too big to
//    exhaust. Every schedule's pick sequence is recorded, so any failure —
//    assertion, race, deadlock, step-budget livelock — replays
//    deterministically from its printed seed (random) or trace (either).
//  * Weak memory is NOT simulated: the serialized run always reads the
//    latest value. Instead, a vector-clock happens-before tracker flags
//    missing synchronization: acquire/release (and mutex) edges build the
//    clocks, relaxed operations do not, and a pair of MW_MC_RACE_READ/WRITE
//    accesses without an edge is reported as a data race — the same class
//    of bug a weakened memory order would expose on real hardware.
//
// Typical use (see tests/test_mc.cpp):
//
//   mc::Options options;
//   options.strategy = mc::Strategy::kExhaustive;
//   mc::Result r = mc::check(options, [](mc::Sim& sim) {
//       auto q = std::make_shared<MpmcRing<int>>(4);
//       sim.thread([q] { while (!q->try_push(7)) {} });
//       sim.thread([q] { int v; while (!q->try_pop(v)) {} MC_ASSERT(v == 7); });
//       sim.join_all();
//   });
//   ASSERT_FALSE(r.failed) << r.message;
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "mc/hooks.hpp"

namespace mw::mc {

enum class Strategy : int {
    kExhaustive,  ///< DFS over the pick tree, bounded by `preemption_bound`
    kRandom,      ///< `max_schedules` seeded samples from `seed`
    kReplay,      ///< exactly one schedule: `replay_trace` or `replay_seed`
};

struct Options {
    Strategy strategy = Strategy::kExhaustive;

    /// Exhaustive: max context switches away from a runnable thread per
    /// schedule (CHESS-style preemption bounding).
    int preemption_bound = 3;

    /// Exhaustive: safety valve — stop (exhausted=false) after this many
    /// schedules. Random: exactly this many samples.
    std::uint64_t max_schedules = 200000;

    /// Random: base seed; sample i runs with effective seed `seed + i`.
    /// A failure reports the *effective* seed, replayable directly.
    std::uint64_t seed = 1;

    /// Per-schedule step budget: a schedule that exceeds it fails as a
    /// livelock (e.g. a spin loop whose exit flag is never published).
    std::uint64_t max_steps = 50000;

    /// Replay: the comma-separated pick sequence printed in a failure
    /// (takes precedence over replay_seed when non-empty).
    std::string replay_trace;
    /// Replay: re-run the single random sample with this effective seed.
    std::uint64_t replay_seed = 0;

    /// Managed threads per execution, including the body thread (fixed cap
    /// keeps the vector clocks flat).
    static constexpr std::size_t kMaxThreads = 8;
};

struct Result {
    bool failed = false;
    /// Exhaustive only: the pick tree was fully explored within the bounds.
    bool exhausted = false;
    std::uint64_t schedules = 0;   ///< schedules actually run
    std::uint64_t max_steps_seen = 0;

    // Failure details (valid when failed):
    std::string message;        ///< what + where + recent-event tail
    std::uint64_t failing_seed = 0;  ///< random mode: effective seed
    std::string failing_trace;  ///< pick sequence, feed to replay_trace
};

/// Handle the body closure uses to spawn managed threads. Only valid inside
/// the closure for the duration of one schedule.
class Sim {
public:
    /// Spawn a managed thread running `fn`. Spawn is a scheduling point and
    /// a happens-before edge parent -> child.
    void thread(std::function<void()> fn);

    /// Block the body thread until every spawned thread finished (join
    /// happens-before edges child -> body). Call before final assertions.
    void join_all();

private:
    friend class Execution;
    explicit Sim(class Execution* exec) : exec_(exec) {}
    class Execution* exec_;
};

/// Explore schedules of `body` per `options`. The body runs once per
/// schedule on a managed thread and must be deterministic apart from the
/// scheduling itself (fresh state each run, no wall clock, no external
/// randomness). Not reentrant; one check() at a time per process.
[[nodiscard]] Result check(const Options& options,
                           const std::function<void(Sim&)>& body);

/// Convenience: replay one failing schedule of `body` from a Result.
[[nodiscard]] Result replay(const Options& base, const Result& failure,
                            const std::function<void(Sim&)>& body);

}  // namespace mw::mc
