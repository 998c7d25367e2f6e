// Monotonic wall-clock stopwatch plus the time plumbing shared by the
// measurement harness, benches, and the serving layer. All raw std::chrono
// access in src/ is confined to this header and common/sync.hpp (mw-analyze:
// time-arith-confined); everything else deals in double seconds. Timed
// condition waits live on mw::CondVar (common/sync.hpp), which keeps the
// same double-seconds convention.
#pragma once

#include <chrono>
#include <thread>

#include "common/sync.hpp"

namespace mw {

/// A restartable monotonic stopwatch. Construction starts it.
class Stopwatch {
public:
    Stopwatch() : start_(Clock::now()) {}

    /// Restart and return the elapsed seconds since the previous start.
    double lap() {
        const auto now = Clock::now();
        const double s = std::chrono::duration<double>(now - start_).count();
        start_ = now;
        return s;
    }

    /// Elapsed seconds since the last (re)start without restarting.
    [[nodiscard]] double elapsed() const {
        return std::chrono::duration<double>(Clock::now() - start_).count();
    }

    void restart() { start_ = Clock::now(); }

private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_;
};

/// Abstract time source: seconds since an arbitrary epoch, monotone
/// non-decreasing. Components that must run on both a real and a simulated
/// timeline (the mw::serve layer in particular) take time ONLY through this
/// interface — benches inject a WallClock, deterministic tests a ManualClock.
/// mw-analyze's `clock-confinement` rule enforces the discipline in the
/// serve, obs, fault, cluster and graph tiers.
class Clock {
public:
    virtual ~Clock() = default;

    [[nodiscard]] virtual double now() const = 0;
};

/// Real time: seconds elapsed since construction.
class WallClock final : public Clock {
public:
    [[nodiscard]] double now() const override { return watch_.elapsed(); }

private:
    Stopwatch watch_;
};

/// Manually driven time for deterministic tests: now() only moves when the
/// test calls set()/advance(). Safe to advance while other threads read.
class ManualClock final : public Clock {
public:
    explicit ManualClock(double start_s = 0.0) : now_(start_s) {}

    [[nodiscard]] double now() const override {
        return now_.load(std::memory_order_acquire);
    }

    void set(double t) { now_.store(t, std::memory_order_release); }
    void advance(double dt) { now_.fetch_add(dt, std::memory_order_acq_rel); }

private:
    Atomic<double> now_;
};

/// Sleep the calling thread for `seconds` (no-op when <= 0).
inline void sleep_for_seconds(double seconds) {
    if (seconds <= 0.0) return;
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

}  // namespace mw
