// mw-analyze: the whole-program model the scanner extracts and the checks
// consume. Deliberately name-based: classes are keyed by their unqualified
// name, functions by (class, name). That is the precision a declaration
// scanner can deliver without a real frontend; DESIGN.md §14 spells out the
// approximation contract.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "lexer.hpp"

namespace mwa {

/// One enumerator of the LockRank enum (the repo's global lock order).
struct RankEntry {
    std::string name;  // e.g. "kDevice"
    long value = 0;
    std::string file;
    int line = 0;
};

struct RankTable {
    std::vector<RankEntry> entries;  // declaration order
    std::unordered_map<std::string, long> value;

    bool empty() const { return entries.empty(); }
};

/// A Mutex/SharedMutex declaration with its LockRank constructor argument.
/// `cls` is empty for namespace-scope mutexes (e.g. the logger sink lock).
struct MutexDecl {
    std::string cls;
    std::string name;
    std::string rank;  // LockRank enumerator name
    bool shared = false;
    std::string file;
    int line = 0;
};

/// A data member: types guard expressions and call receivers. `type` is the
/// last class-ish identifier of the declared type
/// (std::unique_ptr<obs::MetricsRegistry> -> "MetricsRegistry").
struct MemberVar {
    std::string cls;  // owning class ("" = namespace scope)
    std::string name;
    std::string type;
};

/// A guard (MutexLock / ReaderLock / WriterLock) constructed in a function.
struct GuardSite {
    std::string mutex_expr;  // last identifier of the constructor argument
    std::string rank;        // resolved LockRank name ("" if unresolved)
    bool reader = false;
    int line = 0;
    // Indices (into FunctionInfo::guards) of guards still live when this one
    // is acquired — the intra-function nesting edges.
    std::vector<std::size_t> live_guards;
};

/// A call made inside a function body, with the guards live around it.
struct CallSite {
    std::string name;       // callee identifier
    std::string qualifier;  // "T" for T::name(...) calls, else ""
    std::string recv;       // receiver identifier for x.name()/x->name() ("" unknown)
    bool member_call = false;
    std::vector<std::size_t> live_guards;  // indices into FunctionInfo::guards
    int line = 0;
};

struct FunctionInfo {
    std::string cls;   // "" for free functions
    std::string name;  // unqualified
    std::string file;
    int line = 0;  // body start
    std::vector<GuardSite> guards;
    std::vector<CallSite> calls;
    // Local variable name -> last class-ish identifier of its declared type
    // (receiver typing for `Device* d = ...; d->load_model(...)`).
    std::unordered_map<std::string, std::string> locals;

    std::string qualified() const { return cls.empty() ? name : cls + "::" + name; }
};

struct Program {
    RankTable ranks;
    std::vector<MutexDecl> mutexes;
    std::vector<FunctionInfo> functions;
    std::vector<MemberVar> members;
    std::set<std::string> classes;  // every class/struct name seen
    std::vector<LexedFile> files;   // retained for the token-level checks

    // Scanner statistics, surfaced under --verbose and in the JSON summary.
    std::size_t unresolved_guards = 0;
    std::size_t ambiguous_calls = 0;
};

struct Finding {
    std::string file;
    int line = 0;
    std::string check;    // e.g. "lock-order-rank"
    std::string message;  // human text, includes the acquisition chain
};

/// How a banned identifier must be qualified to count.
enum class Qual {
    kAny,        // any spelling: `assert`, `x::assert`
    kStd,        // only `std::name` (or `stdsync::name`, sync.hpp's alias of ::std)
    kStdOrNone,  // `name`, `::name` or `std::name`, but not `other::name`
};

/// What must follow a banned identifier for it to count.
enum class Follow {
    kAnything,
    kCall,      // `name(`: assert(x), abort()
    kNotScope,  // not `name::`: `std::thread t` counts, `std::thread::id` does not
};

/// One row of the token-rule table: identifiers (and `#include` headers)
/// banned from every file under `prefix` except the sanctioned ones. Paths
/// are root-relative and matched by prefix, so an entry names either a
/// directory ("src/serve/") or a file family ("src/common/thread_pool.").
/// Every row matching a file applies; several rows may share one check
/// name, and a check reports a line at most once.
struct ConfinementRule {
    std::string check;                    // finding name, e.g. "naked-thread"
    std::string prefix;                   // files the row covers ("" = all)
    std::vector<std::string> sanctioned;  // files exempt from the row
    // Identifier tokens; an entry spelled `<header>` matches an
    // `#include <header>` line instead.
    std::vector<std::string> banned;
    std::string why;  // appended to the diagnostic
    Qual qual = Qual::kAny;
    Follow follow = Follow::kAnything;
};

struct AnalyzerConfig {
    // Functions whose invocation under a live guard is a finding. Entries are
    // either bare names ("sleep_for_seconds", matched against any call) or
    // qualified "Class::method" (matched only when the call resolves there).
    std::vector<std::string> blocking;
    std::vector<ConfinementRule> confinement;
    // Files the declaration scanner reads only for the LockRank table and the
    // relaxed-order check skips: the wrappers' own implementation, the one
    // sanctioned home of raw atomics and locks. Matched by prefix, as
    // ConfinementRule::sanctioned is.
    std::vector<std::string> wrappers;
};

/// The default configuration mirroring the repo's conventions.
AnalyzerConfig default_config();

}  // namespace mwa
