// Fixture: naked-thread. A std::thread may be constructed or owned only in
// src/common/thread_pool.*; this_thread, thread::id and
// hardware_concurrency() queries start no thread and stay silent. A macro
// body is a use, on every line it spans.
#define SPAWN(f) std::thread(f)  // expect(naked-thread)
#define SPAWN_DETACHED(f) \
    std::thread(f).detach()  // expect(naked-thread)
#define SELF_ID std::thread::id
void spawn(void (*fn)()) {
    std::thread t(fn);    // expect(naked-thread)
    ::std::thread u(fn);  // expect(naked-thread)
    std::thread w(fn);    // mw-analyze: allow(naked-thread) fixture checker-owned thread
    std::this_thread::yield();
    const std::thread::id self = std::this_thread::get_id();
    const unsigned cores = std::thread::hardware_concurrency();
    pool::thread mine(fn);  // another namespace's thread type
    int thread = 0;         // a variable merely named thread
    const char* doc = "std::thread t(fn);";
}

class Owner {
    std::vector<std::thread> workers_;  // expect(naked-thread)
};
