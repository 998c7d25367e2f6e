// Fixture: raw-sync-primitive. Standard mutexes, condition variables and
// lock guards are banned outside common/sync.hpp; the rank-checked
// wrappers and their RAII guards are the sanctioned spelling.
#include <mutex>  // naming the header is not a use
#define LOCK std::lock_guard<std::mutex>  // expect(raw-sync-primitive)
#define GUARD(m) const MutexLock guard(m)

class Store {
public:
    void put() {
        std::unique_lock<std::mutex> raw(m_);  // expect(raw-sync-primitive)
        std::scoped_lock both(a_, b_);         // expect(raw-sync-primitive)
        const MutexLock lock(mutex_);          // the wrapper guard: silent
        std::lock_guard<std::mutex> ok(m_);    // mw-analyze: allow(raw-sync-primitive) fixture suppression
        const char* doc = "std::mutex std::atomic";
    }

private:
    std::mutex m_;                            // expect(raw-sync-primitive)
    stdsync::condition_variable_any ready_;   // expect(raw-sync-primitive)
    std::shared_timed_mutex rw_;              // expect(raw-sync-primitive)
    Mutex mutex_{LockRank::kStore};
    CondVar wake_;
    sim::mutex modelled_;  // another namespace's mutex: silent
};
