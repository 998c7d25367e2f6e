// Fixture: the wrappers' own header is the one sanctioned home of raw
// atomics, and it is exempt from the relaxed-order justification too.
template <typename T>
class Atomic {
public:
    T load() const { return raw_.load(stdsync::memory_order_relaxed); }

private:
    std::atomic<T> raw_;
};
