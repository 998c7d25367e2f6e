// TraceRecorder: allocation-free request-path tracing.
//
// Each recording thread owns a preallocated span buffer; record() is a few
// stores plus one release store of the published count — no locks, no
// allocation (the buffer is created on the thread's first record). Published
// slots are immutable, so snapshot()/exporters can run concurrently with
// recording without a data race: a buffer that fills up drops further spans
// (counted in dropped()) instead of overwriting slots a reader may be
// scanning. Size the capacity for the window you care about and snapshot
// between runs.
//
// Recording components reach the recorder through the process-wide install()
// pointer via the MW_TRACE_* macros below, which compile to nothing under
// -DMW_OBS=OFF (no argument evaluation, zero overhead) and to a single
// atomic pointer test when no recorder is installed. The recorder itself
// never reads a clock: every timestamp is passed in by the caller from its
// own injected mw::Clock / simulated timeline (mw-analyze: clock-confinement).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/sync.hpp"
#include "obs/span.hpp"

namespace mw::obs {

struct TraceConfig {
    /// Spans retained per recording thread; further records are dropped
    /// (and counted), never overwritten. ~56 B/span.
    std::size_t ring_capacity = 16384;
};

/// Thread safety: record() may be called from any number of threads
/// concurrently with snapshot()/dropped(). install()/uninstall and
/// destruction must happen at quiescence (no concurrent record() callers).
class TraceRecorder {
public:
    explicit TraceRecorder(TraceConfig config = {});
    ~TraceRecorder();

    TraceRecorder(const TraceRecorder&) = delete;
    TraceRecorder& operator=(const TraceRecorder&) = delete;

    /// Record one span [t0, t1] (t1 == t0 for instant events). Allocation-free
    /// after the calling thread's first record; safe to call concurrently.
    void record(Phase phase, std::uint64_t request_id, double t0, double t1,
                const char* label) noexcept;

    /// Copy of every published span across all threads, sorted by t0.
    [[nodiscard]] std::vector<Span> snapshot() const;

    /// Spans discarded because a thread's buffer was full.
    [[nodiscard]] std::size_t dropped() const;

    /// Threads that have recorded at least one span.
    [[nodiscard]] std::size_t thread_count() const;

    /// Install `recorder` as the process-wide trace sink (nullptr uninstalls).
    /// The caller keeps ownership; uninstall (or destroy, which uninstalls
    /// itself) only when no thread is mid-record.
    static void install(TraceRecorder* recorder) noexcept;
    [[nodiscard]] static TraceRecorder* installed() noexcept;

private:
    struct Ring {
        Ring(std::size_t capacity, std::uint32_t tid_in)
            : slots(capacity), tid(tid_in) {}

        std::vector<Span> slots;          ///< preallocated; written once each
        Atomic<std::size_t> published{0}; ///< slots [0, published) are final
        Atomic<std::size_t> dropped{0};
        std::uint32_t tid;
    };

    [[nodiscard]] Ring& ring_for_this_thread() noexcept;

    TraceConfig config_;
    std::uint64_t generation_;  ///< invalidates stale thread-local ring caches

    mutable Mutex mutex_{LockRank::kObs};  ///< guards registration + snapshot
    std::vector<std::unique_ptr<Ring>> rings_ MW_GUARDED_BY(mutex_);
};

/// Hook helpers. Inline wrappers so the macros below stay expression-shaped.
inline void trace_span(Phase phase, std::uint64_t request_id, double t0, double t1,
                       const char* label) noexcept {
    if (TraceRecorder* recorder = TraceRecorder::installed()) {
        recorder->record(phase, request_id, t0, t1, label);
    }
}

inline void trace_instant(Phase phase, std::uint64_t request_id, double t,
                          const char* label) noexcept {
    trace_span(phase, request_id, t, t, label);
}

}  // namespace mw::obs

// Compile-time kill switch: under -DMW_OBS=OFF the hook sites expand to
// nothing — arguments (including clock reads) are never evaluated.
#if defined(MW_OBS_ENABLED)
#define MW_TRACE_SPAN(phase, id, t0, t1, label) \
    ::mw::obs::trace_span((phase), (id), (t0), (t1), (label))
#define MW_TRACE_INSTANT(phase, id, t, label) \
    ::mw::obs::trace_instant((phase), (id), (t), (label))
#else
#define MW_TRACE_SPAN(phase, id, t0, t1, label) ((void)0)
#define MW_TRACE_INSTANT(phase, id, t, label) ((void)0)
#endif
