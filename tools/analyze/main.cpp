// mw-analyze: whole-program static analysis for the manyworlds tree.
//
//   mw-analyze --root <repo>        analyze <repo>/src, human-readable output
//   mw-analyze --root <repo> --json machine-readable findings + summary
//   mw-analyze --self-test          run the golden fixtures
//
// Exit codes: 0 clean, 1 findings (or fixture mismatch), 2 usage/setup error.
#include <cstdio>
#include <cstring>
#include <string>

#include "analysis.hpp"
#include "selftest.hpp"

namespace {

const char kUsage[] =
    "usage: mw-analyze [--root DIR] [--json] [--edges] [--self-test] [--fixtures DIR]\n"
    "\n"
    "Whole-program checks over DIR/src (or DIR when no src/ exists):\n"
    "  lock-order-rank          every held-while-acquiring edge must strictly\n"
    "                           increase LockRank (src/common/sync.hpp)\n"
    "  lock-order-cycle         the derived lock graph must be acyclic, across TUs\n"
    "  blocking-under-lock      no sleeps / stdio / Transport::send under a guard\n"
    "  relaxed-order-justified  memory_order_relaxed needs a `// relaxed:` note\n"
    "\n"
    "Token rules (each bans identifiers outside the files that wrap them):\n"
    "  raw-atomic               std::atomic* only in common/sync.hpp (use mw::Atomic)\n"
    "  naked-thread             std::thread only in common/thread_pool.*\n"
    "  raw-sync-primitive       std mutexes/condvars/lock guards only in\n"
    "                           common/sync.hpp (use mw::Mutex, mw::CondVar)\n"
    "  raw-assert               no assert() or <cassert> in src/ (use MW_CHECK,\n"
    "                           MW_ASSERT, MW_DCHECK)\n"
    "  raw-abort                abort()/exit()/quick_exit()/_Exit() only in\n"
    "                           common/error.hpp\n"
    "  time-arith-confined      std::chrono and clock reads only in\n"
    "                           common/timer.hpp and common/sync.hpp\n"
    "  clock-confinement        no Stopwatch/WallClock in the clock-injected tiers\n"
    "                           (serve, obs, fault, cluster, graph)\n"
    "  lock-free-confinement    no Mutex/CondVar/locks in the serving hot-path\n"
    "                           files (rings, epoch cell, request pool)\n"
    "\n"
    "Suppress one finding with a comment on its line, or in the comment block\n"
    "directly above it: // mw-analyze: allow(<check>) <justification>\n";

}  // namespace

int main(int argc, char** argv) {
    std::string root = ".";
    std::string fixtures =
#ifdef MW_ANALYZE_FIXTURES
        MW_ANALYZE_FIXTURES;
#else
        "tools/analyze/fixtures";
#endif
    bool json = false;
    bool self_test = false;
    bool dump_edges = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--root" && i + 1 < argc) {
            root = argv[++i];
        } else if (arg == "--fixtures" && i + 1 < argc) {
            fixtures = argv[++i];
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--edges") {
            dump_edges = true;
        } else if (arg == "--self-test") {
            self_test = true;
        } else if (arg == "--help" || arg == "-h") {
            std::fputs(kUsage, stdout);
            return 0;
        } else {
            std::fprintf(stderr, "mw-analyze: unknown argument `%s`\n%s", arg.c_str(), kUsage);
            return 2;
        }
    }
    if (self_test) return mwa::run_self_test(fixtures);

    std::string err;
    mwa::AnalyzerConfig cfg = mwa::default_config();
    mwa::Program prog = mwa::load_program(root, cfg, &err);
    if (!err.empty()) {
        std::fprintf(stderr, "mw-analyze: %s\n", err.c_str());
        return 2;
    }
    if (prog.files.empty()) {
        std::fprintf(stderr, "mw-analyze: no C++ sources under %s\n", root.c_str());
        return 2;
    }
    if (prog.ranks.empty()) {
        // A real tree without a LockRank table means the scan is mis-rooted —
        // refuse rather than silently passing with vacuous lock checks.
        std::fprintf(stderr,
                     "mw-analyze: no LockRank enum found under %s "
                     "(expected src/common/sync.hpp); refusing a vacuous run\n",
                     root.c_str());
        return 2;
    }
    const mwa::AnalysisResult res = mwa::analyze(prog, cfg);
    if (dump_edges) {
        for (const mwa::EdgeInfo& e : res.edge_list) {
            std::printf("%s -> %s   via %s\n", e.from.c_str(), e.to.c_str(), e.chain.c_str());
        }
    }
    if (json) {
        std::fputs(mwa::to_json(prog, res).c_str(), stdout);
    } else {
        for (const mwa::Finding& f : res.findings) {
            std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line, f.check.c_str(),
                        f.message.c_str());
        }
        std::printf(
            "mw-analyze: %zu finding(s), %zu suppressed — %zu files, %zu functions, "
            "%zu mutexes, %zu ranks, %zu lock edges, %zu unresolved guards, "
            "%zu ambiguous calls\n",
            res.findings.size(), res.suppressed, prog.files.size(), prog.functions.size(),
            prog.mutexes.size(), prog.ranks.entries.size(), res.edges, prog.unresolved_guards,
            prog.ambiguous_calls);
    }
    return res.findings.empty() ? 0 : 1;
}
