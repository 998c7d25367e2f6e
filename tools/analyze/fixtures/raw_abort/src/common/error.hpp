// Fixture: the MW_* macros' home is the one place allowed to abort.
[[noreturn]] inline void fail_fatal() { std::abort(); }
#define MW_FAIL() std::abort()
