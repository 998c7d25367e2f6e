// Fixture: the pool is the sanctioned owner of raw threads.
void ThreadPool::start(void (*fn)()) {
    std::thread worker(fn);
    workers_.push_back(std::move(worker));
}
