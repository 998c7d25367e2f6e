// Fixture: raw-abort. abort()/exit() calls, unqualified or std::, are banned
// outside common/error.hpp: fatal paths go through the MW_* macros so they
// print where and why.
#define DIE() std::abort()  // expect(raw-abort)
#define QUIT(code) exit(code)  // expect(raw-abort)
void die(int code) {
    std::abort();      // expect(raw-abort)
    abort();           // expect(raw-abort)
    std::exit(code);   // expect(raw-abort)
    exit(code);        // expect(raw-abort)
    std::exit(code);   // mw-analyze: allow(raw-abort) fixture suppression
    sim::exit(code);   // another namespace's exit: silent
    std::atexit(flush);
    const int exit_code = code;
    on_abort(exit_code);
    MW_CHECK(code == 0, "clean shutdown");
    const char* doc = "std::abort(); exit(1);";
}
