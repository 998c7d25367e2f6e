// Fixture: time-arith-confined. Raw std::chrono and clock reads are banned
// outside common/timer.hpp and common/sync.hpp: wall-clock time goes
// through mw::Stopwatch, timed waits through mw::CondVar.
#include <chrono>  // naming the header is not a use
#define NOW() std::chrono::steady_clock::now()  // expect(time-arith-confined)
double elapsed() {
    const auto t0 = std::chrono::steady_clock::now();  // expect(time-arith-confined)
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);  // expect(time-arith-confined)
    using clock = system_clock;           // expect(time-arith-confined)
    const auto budget = std::chrono::milliseconds(5);  // expect(time-arith-confined)
    const auto t1 = std::chrono::steady_clock::now();  // mw-analyze: allow(time-arith-confined) fixture suppression
    Stopwatch sw;                         // the sanctioned wrapper: silent
    sim::chrono::tick tick;               // another namespace's chrono: silent
    const double steady_clock_skew = 0.0;  // an identifier merely containing the name
    const char* doc = "std::chrono::steady_clock::now()";
    return sw.elapsed_seconds() + steady_clock_skew;
}
