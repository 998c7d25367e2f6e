// Fixture: CondVar's timed wait is the other sanctioned conversion point.
inline void wait_for_seconds(double s) {
    const auto d = std::chrono::duration<double>(s);
}
