// mw::mc execution engine: cooperative serialization, schedule exploration
// (DFS with preemption bounding / seeded random sampling / replay), and the
// vector-clock happens-before race detector.
//
// This file is the one sanctioned home of raw threading primitives outside
// common/sync.hpp and the ThreadPool: the checker IS the instrumentation
// layer the wrappers call into, so routing it through the wrappers would
// recurse. Every use below carries an explicit mw-analyze allow (naked-thread,
// raw-sync-primitive).

#include "mc/mc.hpp"

#include <array>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace mw::mc {
namespace {

constexpr std::size_t kMaxThreads = Options::kMaxThreads;
constexpr std::size_t kEventTail = 48;  ///< events echoed with a failure

const char* op_name(Op op) noexcept {
    switch (op) {
        case Op::kAtomicLoad: return "atomic-load";
        case Op::kAtomicStore: return "atomic-store";
        case Op::kAtomicRmw: return "atomic-rmw";
        case Op::kMutexLock: return "mutex-lock";
        case Op::kMutexUnlock: return "mutex-unlock";
        case Op::kSharedLock: return "shared-lock";
        case Op::kSharedUnlock: return "shared-unlock";
        case Op::kYield: return "yield";
        case Op::kRaceRead: return "race-read";
        case Op::kRaceWrite: return "race-write";
    }
    return "?";
}

/// Fixed-width vector clock; component t is thread t's event count.
struct VectorClock {
    std::array<std::uint64_t, kMaxThreads> c{};

    void join(const VectorClock& other) noexcept {
        for (std::size_t i = 0; i < kMaxThreads; ++i) {
            if (other.c[i] > c[i]) c[i] = other.c[i];
        }
    }
    void clear() noexcept { c.fill(0); }
};

/// Thrown inside managed threads to unwind the current schedule after a
/// failure was recorded. Never escapes the thread wrapper.
struct AbortSchedule {};

/// One decision point of the DFS pick tree, persisted across runs.
struct Frame {
    std::vector<int> choices;     ///< runnable thread ids, current-first
    std::size_t index = 0;        ///< alternative this run takes
    int preemptions_before = 0;   ///< preemptions spent along the prefix
    bool current_first = false;   ///< choices[0] is the still-runnable current
                                  ///< thread, so index > 0 costs a preemption
};

struct ExploreState {
    std::vector<Frame> frames;      ///< DFS prefix (kExhaustive)
    std::vector<int> replay_picks;  ///< forced picks (kReplay via trace)
    std::uint64_t rng_seed = 0;     ///< effective seed (kRandom / kReplay)
    bool use_rng = false;
};

}  // namespace

// Execution and its satellites live at mw::mc scope (not the anonymous
// namespace) so the forward declaration in mc.hpp names the same type.
class Execution;
Execution* g_active = nullptr;                 ///< the running check()
thread_local struct ThreadRec* t_self = nullptr;  ///< managed-thread identity

struct ThreadRec {
    int id = -1;
    Execution* exec = nullptr;
    std::function<void()> fn;
    std::thread th;  // mw-analyze: allow(naked-thread) managed checker thread

    enum class State { kRunnable, kBlockedSync, kBlockedJoin, kFinished };
    State state = State::kRunnable;
    const void* wait_addr = nullptr;  ///< kBlockedSync: the contended primitive
    bool go = false;                  ///< baton: this thread may run
    std::condition_variable cv;  // mw-analyze: allow(raw-sync-primitive) baton wakeup
    VectorClock clock;
};

/// Per-atomic-object synchronization state (simplified release sequences:
/// a release store replaces the clock, an RMW extends it, a relaxed plain
/// store breaks it).
struct AtomicState {
    VectorClock release_clock;
};

/// FastTrack-style last-access state for instrumented non-atomic locations.
struct DataState {
    int last_writer = -1;
    std::uint64_t write_epoch = 0;
    const char* write_label = nullptr;
    std::array<std::uint64_t, kMaxThreads> read_epochs{};
    std::array<const char*, kMaxThreads> read_labels{};
};

struct MutexClock {
    VectorClock clock;  ///< joined at release, acquired at lock
};

struct Event {
    int tid;
    Op op;
    const void* addr;
    const char* label;
};

/// One schedule's cooperative execution. Exactly one managed thread runs at
/// a time; control transfers only inside schedule points, so the run is a
/// total order of instrumented operations determined by the pick sequence.
class Execution {
public:
    Execution(const Options& options, ExploreState& explore)
        : options_(options), explore_(explore) {
        if (explore_.use_rng) rng_.seed(explore_.rng_seed);
    }

    // -- driving (called from the unmanaged check() thread) -----------------

    void run(const std::function<void(Sim&)>& body) {
        {
            std::unique_lock<std::mutex> lk(mu_);  // mw-analyze: allow(raw-sync-primitive) baton
            ThreadRec* rec = make_thread_locked([this, &body] {
                Sim sim(this);
                body(sim);
            });
            rec->go = true;
            rec->cv.notify_one();
        }
        {
            std::unique_lock<std::mutex> lk(mu_);  // mw-analyze: allow(raw-sync-primitive) baton
            done_cv_.wait(lk, [this] { return finished_ == spawned_; });
        }
        for (auto& rec : threads_) {
            if (rec && rec->th.joinable()) rec->th.join();
        }
    }

    [[nodiscard]] bool failed() const { return failed_; }
    [[nodiscard]] const std::string& failure() const { return failure_; }
    [[nodiscard]] std::uint64_t steps() const { return steps_; }
    [[nodiscard]] std::string picks_string() const {
        std::ostringstream out;
        for (std::size_t i = 0; i < picks_.size(); ++i) {
            if (i > 0) out << ',';
            out << picks_[i];
        }
        return out.str();
    }

    // -- Sim surface (called from managed threads) --------------------------

    void spawn(std::function<void()> fn) {
        ThreadRec* self = t_self;
        MW_ASSERT_MSG(self != nullptr, "Sim::thread called off a managed thread");
        std::unique_lock<std::mutex> lk(mu_);  // mw-analyze: allow(raw-sync-primitive) baton
        if (spawned_ >= kMaxThreads) {
            fail_locked(lk, "Sim::thread: thread cap exceeded (Options::kMaxThreads)");
        }
        ThreadRec* child = make_thread_locked(std::move(fn));
        // Spawn edge: the child begins with everything the parent did so far;
        // the parent's next event is NOT ordered before the child. join (not
        // assign) so the child keeps its own component's initial tick.
        child->clock.join(self->clock);
        self->clock.c[static_cast<std::size_t>(self->id)] += 1;
    }

    void join_all() {
        ThreadRec* self = t_self;
        MW_ASSERT_MSG(self != nullptr, "Sim::join_all called off a managed thread");
        std::unique_lock<std::mutex> lk(mu_);  // mw-analyze: allow(raw-sync-primitive) baton
        while (!others_finished_locked(self)) {
            self->state = ThreadRec::State::kBlockedJoin;
            yield_locked(lk, self, Op::kYield, nullptr, "join_all");
        }
        // Join edges: the body resumes ordered after every child's last event.
        for (auto& rec : threads_) {
            if (rec && rec.get() != self) self->clock.join(rec->clock);
        }
    }

    // -- instrumentation hooks (called from managed threads) ----------------

    void schedule_point(Op op, const void* addr, const char* label) {
        ThreadRec* self = t_self;
        std::unique_lock<std::mutex> lk(mu_);  // mw-analyze: allow(raw-sync-primitive) baton
        yield_locked(lk, self, op, addr, label);
    }

    void apply_atomic(const void* addr, Op op, Ordering order, bool did_store) {
        ThreadRec* self = t_self;
        std::unique_lock<std::mutex> lk(mu_);  // mw-analyze: allow(raw-sync-primitive) baton
        AtomicState& atom = atomics_[addr];
        const bool acquire_side =
            order == Ordering::kAcquire || order == Ordering::kAcqRel;
        const bool release_side =
            order == Ordering::kRelease || order == Ordering::kAcqRel;
        if (acquire_side) self->clock.join(atom.release_clock);
        if (did_store) {
            if (release_side) {
                if (op == Op::kAtomicRmw) {
                    atom.release_clock.join(self->clock);  // extends the sequence
                } else {
                    atom.release_clock = self->clock;  // heads a new sequence
                }
                self->clock.c[static_cast<std::size_t>(self->id)] += 1;
            } else if (op == Op::kAtomicStore) {
                // A relaxed plain store breaks the release sequence: readers
                // of this value synchronize with nobody.
                atom.release_clock.clear();
            }
            // Relaxed RMW: continues the sequence, adds no edge of its own.
        }
    }

    void lock(const void* addr, bool shared, bool (*try_acquire)(void*),
              void* primitive, const char* label) {
        const Op op = shared ? Op::kSharedLock : Op::kMutexLock;
        for (;;) {
            schedule_point(op, addr, label);
            if (try_acquire(primitive)) break;
            ThreadRec* self = t_self;
            std::unique_lock<std::mutex> lk(mu_);  // mw-analyze: allow(raw-sync-primitive) baton
            self->state = ThreadRec::State::kBlockedSync;
            self->wait_addr = addr;
            yield_locked(lk, self, op, addr, "blocked");
            self->wait_addr = nullptr;
        }
        ThreadRec* self = t_self;
        std::unique_lock<std::mutex> lk(mu_);  // mw-analyze: allow(raw-sync-primitive) baton
        self->clock.join(mutexes_[addr].clock);
    }

    void unlock(const void* addr, bool shared) {
        ThreadRec* self = t_self;
        std::unique_lock<std::mutex> lk(mu_);  // mw-analyze: allow(raw-sync-primitive) baton
        log_event_locked(self->id, shared ? Op::kSharedUnlock : Op::kMutexUnlock,
                         addr, nullptr);
        MutexClock& mtx = mutexes_[addr];
        mtx.clock.join(self->clock);
        self->clock.c[static_cast<std::size_t>(self->id)] += 1;
        // The real unlock runs right after we return, before this thread can
        // yield again — so waiters retry only once the primitive is free.
        for (auto& rec : threads_) {
            if (rec && rec->state == ThreadRec::State::kBlockedSync &&
                rec->wait_addr == addr) {
                rec->state = ThreadRec::State::kRunnable;
            }
        }
    }

    void race_access(const void* addr, bool is_write, const char* label) {
        ThreadRec* self = t_self;
        std::unique_lock<std::mutex> lk(mu_);  // mw-analyze: allow(raw-sync-primitive) baton
        log_event_locked(self->id, is_write ? Op::kRaceWrite : Op::kRaceRead, addr,
                         label);
        DataState& data = races_[addr];
        const auto sid = static_cast<std::size_t>(self->id);
        const auto ordered_before_self = [&](int tid, std::uint64_t epoch) {
            return epoch <= self->clock.c[static_cast<std::size_t>(tid)];
        };
        if (data.last_writer >= 0 && data.last_writer != self->id &&
            !ordered_before_self(data.last_writer, data.write_epoch)) {
            fail_locked(lk, race_message(is_write ? "write" : "read", label, "write",
                                         data.write_label, data.last_writer, addr));
        }
        if (is_write) {
            for (std::size_t t = 0; t < kMaxThreads; ++t) {
                if (t == sid || data.read_epochs[t] == 0) continue;
                if (!ordered_before_self(static_cast<int>(t), data.read_epochs[t])) {
                    fail_locked(lk, race_message("write", label, "read",
                                                 data.read_labels[t],
                                                 static_cast<int>(t), addr));
                }
            }
            data.last_writer = self->id;
            data.write_epoch = self->clock.c[sid];
            data.write_label = label;
            data.read_epochs.fill(0);
        } else {
            data.read_epochs[sid] = self->clock.c[sid];
            data.read_labels[sid] = label;
        }
    }

    void fail(const std::string& reason) {
        std::unique_lock<std::mutex> lk(mu_);  // mw-analyze: allow(raw-sync-primitive) baton
        fail_locked(lk, reason);
    }

    // Thread wrapper, public for the std::thread entry point.
    void thread_main(ThreadRec* rec) {
        t_self = rec;
        {
            std::unique_lock<std::mutex> lk(mu_);  // mw-analyze: allow(raw-sync-primitive) baton
            rec->cv.wait(lk, [&] { return rec->go || aborting_; });
        }
        if (!aborting_) {
            try {
                rec->fn();
            } catch (const AbortSchedule&) {
                // failure already recorded; unwound cleanly
            } catch (const std::exception& e) {
                fail(std::string("unhandled exception in managed thread: ") + e.what());
            } catch (...) {
                fail("unhandled non-std exception in managed thread");
            }
        }
        t_self = nullptr;
        std::unique_lock<std::mutex> lk(mu_);  // mw-analyze: allow(raw-sync-primitive) baton
        rec->state = ThreadRec::State::kFinished;
        finished_ += 1;
        // The body thread blocked in join_all becomes runnable once every
        // other thread has finished.
        for (auto& other : threads_) {
            if (other && other->state == ThreadRec::State::kBlockedJoin &&
                others_finished_locked(other.get())) {
                other->state = ThreadRec::State::kRunnable;
            }
        }
        if (finished_ == spawned_) {
            done_cv_.notify_all();
            return;
        }
        try {
            hand_off_locked(lk, rec, /*at_exit=*/true, Op::kYield, nullptr, "exit");
        } catch (const AbortSchedule&) {
            // Deadlock detected at thread exit (the remaining threads are all
            // blocked): the failure is recorded; they unwind on their own.
        }
    }

private:
    ThreadRec* make_thread_locked(std::function<void()> fn) {
        auto rec = std::make_unique<ThreadRec>();
        rec->id = static_cast<int>(spawned_);
        rec->exec = this;
        rec->fn = std::move(fn);
        // Own component starts at 1: epoch 0 must stay reserved for "never
        // seen", otherwise a thread that performs no release has epoch 0 and
        // its accesses look ordered-before everyone (0 <= anything).
        rec->clock.c[static_cast<std::size_t>(rec->id)] = 1;
        ThreadRec* raw = rec.get();
        threads_.push_back(std::move(rec));
        spawned_ += 1;
        raw->th = std::thread(  // mw-analyze: allow(naked-thread) checker-owned, joined in run()
            [this, raw] { thread_main(raw); });
        return raw;
    }

    [[nodiscard]] bool others_finished_locked(const ThreadRec* self) const {
        for (const auto& rec : threads_) {
            if (rec && rec.get() != self &&
                rec->state != ThreadRec::State::kFinished) {
                return false;
            }
        }
        return true;
    }

    void log_event_locked(int tid, Op op, const void* addr, const char* label) {
        if (events_.size() < kEventTail) {
            events_.push_back({tid, op, addr, label});
        } else {
            events_[event_next_ % kEventTail] = {tid, op, addr, label};
        }
        event_next_ += 1;
    }

    [[nodiscard]] std::string race_message(const char* this_kind, const char* this_label,
                                           const char* prior_kind,
                                           const char* prior_label, int prior_tid,
                                           const void* addr) const {
        std::ostringstream out;
        out << "data race on " << addr << ": " << this_kind << " of `"
            << (this_label ? this_label : "?") << "` by T" << t_self->id
            << " is unordered with " << prior_kind << " of `"
            << (prior_label ? prior_label : "?") << "` by T" << prior_tid
            << " (no release/acquire or lock edge between them)";
        return out.str();
    }

    /// Record the failure (first wins), wake everyone, and abort the
    /// calling thread's schedule. `lk` must hold mu_.
    // mw-analyze: allow(raw-sync-primitive) baton
    [[noreturn]] void fail_locked(std::unique_lock<std::mutex>& lk,
                                  const std::string& reason) {
        if (!failed_) {
            failed_ = true;
            std::ostringstream out;
            out << reason << "\n  schedule so far:";
            std::ostringstream picks;
            for (std::size_t i = 0; i < picks_.size(); ++i) {
                if (i > 0) picks << ',';
                picks << picks_[i];
            }
            out << ' ' << picks.str() << "\n  recent events (oldest first):";
            const std::size_t count = events_.size();
            for (std::size_t i = 0; i < count; ++i) {
                const Event& e =
                    events_[(event_next_ >= kEventTail ? event_next_ + i : i) % count];
                out << "\n    T" << e.tid << ' ' << op_name(e.op);
                if (e.addr != nullptr) out << " @" << e.addr;
                if (e.label != nullptr) out << " (" << e.label << ")";
            }
            failure_ = out.str();
        }
        aborting_ = true;
        for (auto& rec : threads_) {
            if (rec) rec->cv.notify_all();
        }
        lk.unlock();
        throw AbortSchedule{};
    }

    /// The scheduling point: record the event, pick the next thread per the
    /// exploration strategy, hand the baton over, and (unless at_exit) wait
    /// until this thread is picked again.
    // mw-analyze: allow(raw-sync-primitive) baton
    void yield_locked(std::unique_lock<std::mutex>& lk,
                      ThreadRec* self, Op op, const void* addr, const char* label) {
        hand_off_locked(lk, self, /*at_exit=*/false, op, addr, label);
        self->cv.wait(lk, [&] { return self->go || aborting_; });
        if (aborting_) {
            lk.unlock();
            throw AbortSchedule{};
        }
    }

    // mw-analyze: allow(raw-sync-primitive) baton
    void hand_off_locked(std::unique_lock<std::mutex>& lk,
                         ThreadRec* self, bool at_exit, Op op, const void* addr,
                         const char* label) {
        if (aborting_) {
            if (at_exit) return;
            lk.unlock();
            throw AbortSchedule{};
        }
        log_event_locked(self->id, op, addr, label);
        steps_ += 1;
        if (steps_ > options_.max_steps) {
            fail_locked(lk, "step budget exceeded (" +
                                std::to_string(options_.max_steps) +
                                " scheduling points) — livelock or unpublished "
                                "exit condition?");
        }
        // Runnable set, current thread first when it may keep running.
        std::vector<int> runnable;
        const bool self_runnable =
            !at_exit && self->state == ThreadRec::State::kRunnable;
        if (self_runnable) runnable.push_back(self->id);
        for (const auto& rec : threads_) {
            if (rec && rec.get() != self &&
                rec->state == ThreadRec::State::kRunnable) {
                runnable.push_back(rec->id);
            }
        }
        if (runnable.empty()) {
            std::ostringstream out;
            out << "deadlock: no runnable thread;";
            for (const auto& rec : threads_) {
                if (!rec || rec->state == ThreadRec::State::kFinished) continue;
                out << " T" << rec->id
                    << (rec->state == ThreadRec::State::kBlockedJoin
                            ? " blocked in join_all"
                            : " blocked on a lock");
            }
            fail_locked(lk, out.str());
        }
        const int pick = pick_locked(lk, runnable, self_runnable);
        picks_.push_back(pick);
        if (self_runnable && pick != self->id) preemptions_ += 1;
        if (pick == self->id) return;  // keep running (only when self_runnable)
        ThreadRec* next = nullptr;
        for (const auto& rec : threads_) {
            if (rec && rec->id == pick) next = rec.get();
        }
        self->go = false;
        next->go = true;
        next->cv.notify_one();
    }

    // mw-analyze: allow(raw-sync-primitive) baton
    int pick_locked(std::unique_lock<std::mutex>& lk,
                    const std::vector<int>& runnable, bool current_first) {
        const std::size_t k = cursor_;
        cursor_ += 1;
        if (!explore_.replay_picks.empty()) {
            if (k < explore_.replay_picks.size()) {
                const int forced = explore_.replay_picks[k];
                for (int id : runnable) {
                    if (id == forced) return forced;
                }
                fail_locked(lk, "replay trace diverged: pick " + std::to_string(forced) +
                                    " not runnable at step " + std::to_string(k) +
                                    " (non-deterministic body?)");
            }
            return runnable.front();
        }
        if (explore_.use_rng) {
            return runnable[rng_() % runnable.size()];
        }
        // Exhaustive DFS over the persistent frame prefix.
        std::vector<Frame>& frames = explore_.frames;
        if (k < frames.size()) {
            Frame& f = frames[k];
            if (f.choices != runnable || f.current_first != current_first) {
                fail_locked(lk,
                            "exploration diverged: the runnable set changed between "
                            "runs of the same prefix — the test body must be "
                            "deterministic apart from scheduling");
            }
            return f.choices[f.index];
        }
        Frame f;
        f.choices = runnable;
        f.index = 0;
        f.preemptions_before = preemptions_;
        f.current_first = current_first;
        frames.push_back(std::move(f));
        return runnable.front();
    }

    const Options& options_;
    ExploreState& explore_;
    std::mt19937_64 rng_;

    std::mutex mu_;  // mw-analyze: allow(raw-sync-primitive) the serialization baton itself
    std::condition_variable done_cv_;  // mw-analyze: allow(raw-sync-primitive) run() completion
    std::vector<std::unique_ptr<ThreadRec>> threads_;
    std::size_t spawned_ = 0;
    std::size_t finished_ = 0;
    bool aborting_ = false;
    bool failed_ = false;
    std::string failure_;

    std::uint64_t steps_ = 0;
    std::size_t cursor_ = 0;
    int preemptions_ = 0;
    std::vector<int> picks_;
    std::vector<Event> events_;
    std::size_t event_next_ = 0;

    std::map<const void*, AtomicState> atomics_;
    std::map<const void*, DataState> races_;
    std::map<const void*, MutexClock> mutexes_;
};

/// Parse "0,1,1,0" into pick ids; returns false on malformed input.
bool parse_trace(const std::string& text, std::vector<int>* out) {
    out->clear();
    if (text.empty()) return true;
    std::istringstream in(text);
    std::string item;
    while (std::getline(in, item, ',')) {
        try {
            out->push_back(std::stoi(item));
        } catch (...) {
            return false;
        }
    }
    return true;
}

/// Advance the DFS prefix to the next unexplored schedule; false when the
/// bounded tree is exhausted.
bool advance_frames(std::vector<Frame>& frames, int preemption_bound) {
    while (!frames.empty()) {
        Frame& f = frames.back();
        std::size_t next = f.index + 1;
        // Every alternative beyond index 0 of a current-first frame costs one
        // preemption; skip them all once the budget along this prefix is spent.
        if (f.current_first && f.preemptions_before >= preemption_bound) {
            next = f.choices.size();
        }
        if (next < f.choices.size()) {
            f.index = next;
            return true;
        }
        frames.pop_back();
    }
    return false;
}

bool managed() noexcept { return t_self != nullptr; }

/// A schedule aborts by throwing AbortSchedule through the body's frames, so
/// destructors of RAII protocol guards (e.g. EpochCell::ReadGuard, whose
/// release is an instrumented fetch_sub) run while that exception is in
/// flight. A schedule point taken then would throw a second AbortSchedule
/// mid-unwind and terminate the process — skip instrumentation on unwind
/// paths instead. The real operation still executes; only the yield, clock
/// bookkeeping, and race check are skipped, and the schedule is already
/// being torn down (or, for a body's own exception, about to be failed by
/// the thread wrapper), so no coverage is lost.
bool unwinding() noexcept { return std::uncaught_exceptions() > 0; }

void atomic_point(const void* addr, Op op, Ordering /*order*/,
                  const char* label) {
    if (t_self == nullptr || unwinding()) return;
    t_self->exec->schedule_point(op, addr, label);
}

void atomic_applied(const void* addr, Op op, Ordering order, bool did_store) {
    if (t_self == nullptr || unwinding()) return;
    t_self->exec->apply_atomic(addr, op, order, did_store);
}

void mutex_lock(const void* addr, bool shared, bool (*try_acquire)(void*),
                void* primitive, const char* label) {
    if (t_self == nullptr) return;
    t_self->exec->lock(addr, shared, try_acquire, primitive, label);
}

void mutex_unlock(const void* addr, bool shared) {
    if (t_self == nullptr) return;
    t_self->exec->unlock(addr, shared);
}

void yield_point(const char* label) {
    if (t_self == nullptr || unwinding()) return;
    t_self->exec->schedule_point(Op::kYield, nullptr, label);
}

void race_read(const void* addr, const char* label) {
    if (t_self == nullptr || unwinding()) return;
    t_self->exec->race_access(addr, /*is_write=*/false, label);
}

void race_write(const void* addr, const char* label) {
    if (t_self == nullptr || unwinding()) return;
    t_self->exec->race_access(addr, /*is_write=*/true, label);
}

void check_failed(const char* file, int line, const char* expr, const char* msg) {
    if (t_self != nullptr) {
        std::ostringstream out;
        out << "assertion failed at " << file << ':' << line << ": `" << expr
            << "` — " << msg;
        t_self->exec->fail(out.str());  // throws AbortSchedule
        return;
    }
    ::mw::detail::assert_fail(expr, file, line, msg);
}

void Sim::thread(std::function<void()> fn) { exec_->spawn(std::move(fn)); }

void Sim::join_all() { exec_->join_all(); }

Result check(const Options& options, const std::function<void(Sim&)>& body) {
    MW_ASSERT_MSG(g_active == nullptr, "mc::check is not reentrant");
    Result result;
    ExploreState explore;

    const auto run_one = [&](std::uint64_t effective_seed) -> bool {
        Execution exec(options, explore);
        g_active = &exec;
        exec.run(body);
        g_active = nullptr;
        result.schedules += 1;
        if (exec.steps() > result.max_steps_seen) result.max_steps_seen = exec.steps();
        if (exec.failed()) {
            result.failed = true;
            result.message = exec.failure();
            result.failing_trace = exec.picks_string();
            result.failing_seed = effective_seed;
            return false;
        }
        return true;
    };

    switch (options.strategy) {
        case Strategy::kExhaustive: {
            for (std::uint64_t i = 0; i < options.max_schedules; ++i) {
                if (!run_one(0)) return result;
                if (!advance_frames(explore.frames, options.preemption_bound)) {
                    result.exhausted = true;
                    return result;
                }
            }
            return result;  // hit the safety valve; exhausted stays false
        }
        case Strategy::kRandom: {
            explore.use_rng = true;
            for (std::uint64_t i = 0; i < options.max_schedules; ++i) {
                explore.rng_seed = options.seed + i;
                if (!run_one(explore.rng_seed)) return result;
            }
            return result;
        }
        case Strategy::kReplay: {
            if (!options.replay_trace.empty()) {
                MW_ASSERT_MSG(parse_trace(options.replay_trace, &explore.replay_picks),
                              "mc::Options::replay_trace is malformed");
            } else {
                explore.use_rng = true;
                explore.rng_seed = options.replay_seed;
            }
            run_one(explore.use_rng ? explore.rng_seed : 0);
            return result;
        }
    }
    return result;
}

Result replay(const Options& base, const Result& failure,
              const std::function<void(Sim&)>& body) {
    Options options = base;
    options.strategy = Strategy::kReplay;
    options.replay_trace = failure.failing_trace;
    options.replay_seed = failure.failing_seed;
    return check(options, body);
}

}  // namespace mw::mc
