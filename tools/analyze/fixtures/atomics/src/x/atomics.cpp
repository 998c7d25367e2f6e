// Fixture: atomic discipline. Raw std atomics are banned outside
// common/sync.hpp; memory_order_relaxed needs a same-line `// relaxed:`
// justification; mw-analyze: allow(...) silences a site explicitly.
#include <atomic>
#define ATOMIC_INT std::atomic<int>  // expect(raw-atomic)
#define RELAXED std::memory_order_relaxed  // expect(relaxed-order-justified)
class Counters {
public:
    void bump() {
        hits_.store(1, std::memory_order_relaxed);  // expect(relaxed-order-justified)
        hits_.store(2, std::memory_order_relaxed);  // relaxed: monotonic counter, readers tolerate staleness
        hits_.store(3, std::memory_order_relaxed);  // mw-analyze: allow(relaxed-order-justified) fixture suppression
        const char* doc = "std::atomic<int> in a string is not code";
    }

private:
    std::atomic<int> hits_{0};  // expect(raw-atomic)
    std::atomic_flag busy_;     // expect(raw-atomic)
    stdsync::atomic_ref<int> view_;  // expect(raw-atomic)
    std::atomic<bool> stop_{false};  // mw-analyze: allow(raw-atomic) fixture suppression
    mw::Atomic<int> fine_{0};   // the instrumented wrapper is the sanctioned spelling
    sim::atomic<int> other_{0};  // another namespace's atomic: silent
};
