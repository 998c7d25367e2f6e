// Fixture: Stopwatch's home is sanctioned to read the steady clock.
#define MW_NOW() std::chrono::steady_clock::now()
class Stopwatch {
    std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
};
