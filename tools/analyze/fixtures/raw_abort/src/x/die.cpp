// Fixture: raw-abort. abort()/exit()/quick_exit()/_Exit() calls, unqualified,
// `::`-qualified or std::, are banned outside common/error.hpp: fatal paths
// go through the MW_* macros so they print where and why.
#define DIE() std::abort()  // expect(raw-abort)
#define QUIT(code) exit(code)  // expect(raw-abort)
#define HALT() ::abort()  // expect(raw-abort)
void die(int code) {
    std::abort();      // expect(raw-abort)
    abort();           // expect(raw-abort)
    ::abort();         // expect(raw-abort)
    std::exit(code);   // expect(raw-abort)
    exit(code);        // expect(raw-abort)
    ::exit(code);      // expect(raw-abort)
    std::quick_exit(code);  // expect(raw-abort)
    quick_exit(code);  // expect(raw-abort)
    std::_Exit(code);  // expect(raw-abort)
    _Exit(code);       // expect(raw-abort)
    if (code) return ::_Exit(code);  // expect(raw-abort)
    std::exit(code);   // mw-analyze: allow(raw-abort) fixture suppression
    sim::exit(code);   // another namespace's exit: silent
    sim::quick_exit(code);
    Runner<int>::exit(code);  // a class template's member: silent
    std::atexit(flush);
    std::at_quick_exit(flush);
    const int exit_code = code;
    const int quick_exit = ::exit_code;
    on_abort(exit_code);
    MW_CHECK(code == 0, "clean shutdown");
    const char* doc = "std::abort(); ::exit(1); std::_Exit(2);";
}
