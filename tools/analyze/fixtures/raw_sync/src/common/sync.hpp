// Fixture: the wrappers' own header is the sanctioned home of the raw
// primitives they wrap.
class Mutex {
    std::mutex raw_;
    std::condition_variable_any cv_;
};
