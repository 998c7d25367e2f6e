// mw-analyze: program loading, lock-graph construction, and the checks:
// lock order and blocking-under-lock over the whole-program lock graph,
// justified relaxed ordering, and the token-rule table (default_config).
#pragma once

#include <string>
#include <vector>

#include "model.hpp"

namespace mwa {

struct EdgeInfo {
    std::string from;   // held rank
    std::string to;     // acquired rank
    std::string chain;  // witness acquisition chain (human-readable)
};

struct AnalysisResult {
    std::vector<Finding> findings;  // sorted by (file, line, check)
    std::size_t suppressed = 0;     // findings silenced by mw-analyze: allow(...)
    std::size_t edges = 0;          // distinct held-while-acquiring rank edges
    std::vector<EdgeInfo> edge_list;  // one witness per distinct (from, to)
};

/// Lex + scan every C++ source under `root` (preferring `root/src` when it
/// exists). Paths in the Program are root-relative with '/' separators.
/// Returns an empty program and sets *error on I/O failure.
Program load_program(const std::string& root, const AnalyzerConfig& cfg, std::string* error);

/// Run every check. Resolves guard ranks in place (hence non-const Program).
AnalysisResult analyze(Program& prog, const AnalyzerConfig& cfg);

/// Machine-readable findings + summary (one JSON object).
std::string to_json(const Program& prog, const AnalysisResult& res);

}  // namespace mwa
