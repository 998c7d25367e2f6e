#include "analysis.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "scanner.hpp"

namespace mwa {
namespace {

namespace fs = std::filesystem;

using Key = std::pair<std::string, std::string>;  // (class, function) — class "" = free

std::string qualified(const Key& k) {
    return k.first.empty() ? k.second : k.first + "::" + k.second;
}

bool has_prefix(const std::string& s, const std::string& prefix) {
    return s.compare(0, prefix.size(), prefix) == 0;
}

// Every file list in AnalyzerConfig matches root-relative paths by prefix.
bool listed(const std::vector<std::string>& prefixes, const std::string& path) {
    return std::any_of(prefixes.begin(), prefixes.end(),
                       [&path](const std::string& p) { return has_prefix(path, p); });
}

// --- call resolution -------------------------------------------------------

struct Indexes {
    std::map<Key, std::vector<std::size_t>> fn_by_key;  // -> prog.functions indices
    std::map<std::string, std::set<Key>> fn_by_name;
    std::map<Key, const MutexDecl*> mutex_by_key;
    std::map<std::string, std::vector<const MutexDecl*>> mutex_by_name;
    std::map<Key, std::string> member_type;  // (class, member) -> type
};

Indexes build_indexes(const Program& prog) {
    Indexes ix;
    for (std::size_t i = 0; i < prog.functions.size(); ++i) {
        const FunctionInfo& f = prog.functions[i];
        const Key k{f.cls, f.name};
        ix.fn_by_key[k].push_back(i);
        ix.fn_by_name[f.name].insert(k);
    }
    for (const MutexDecl& m : prog.mutexes) {
        ix.mutex_by_key[{m.cls, m.name}] = &m;
        ix.mutex_by_name[m.name].push_back(&m);
    }
    for (const MemberVar& v : prog.members) ix.member_type[{v.cls, v.name}] = v.type;
    return ix;
}

struct Resolved {
    std::set<Key> targets;  // function definitions this call may reach
    std::string recv_type;  // receiver type when it could be determined
};

Resolved resolve_call(const Program& prog, const Indexes& ix, const FunctionInfo& fn,
                      const CallSite& call, std::size_t* ambiguous) {
    Resolved r;
    if (!call.qualifier.empty()) {
        auto it = ix.fn_by_key.find({call.qualifier, call.name});
        if (it != ix.fn_by_key.end()) r.targets.insert(it->first);
        r.recv_type = call.qualifier;
        return r;  // std:: / chrono:: / unknown qualifiers resolve to nothing
    }
    if (call.member_call) {
        std::string rtype;
        if (call.recv == "this") {
            rtype = fn.cls;
        } else if (!call.recv.empty()) {
            auto lt = fn.locals.find(call.recv);
            if (lt != fn.locals.end()) {
                rtype = lt->second;
            } else {
                auto mt = ix.member_type.find({fn.cls, call.recv});
                if (mt == ix.member_type.end()) mt = ix.member_type.find({"", call.recv});
                if (mt != ix.member_type.end()) rtype = mt->second;
            }
        }
        r.recv_type = rtype;
        if (!rtype.empty()) {
            auto it = ix.fn_by_key.find({rtype, call.name});
            if (it != ix.fn_by_key.end()) {
                r.targets.insert(it->first);
                return r;
            }
            // A typed receiver that is NOT one of our classes (vector, string,
            // shared_ptr element we mis-typed, ...) gets no edge. One of our
            // classes without a matching method usually means inheritance —
            // fall through to the unique-name lookup.
            if (prog.classes.count(rtype) == 0) return r;
        }
        auto nm = ix.fn_by_name.find(call.name);
        if (nm != ix.fn_by_name.end()) {
            if (nm->second.size() == 1) {
                r.targets.insert(*nm->second.begin());
            } else {
                ++*ambiguous;
            }
        }
        return r;
    }
    // Plain call: this class, then free functions, then unique-name fallback.
    auto it = ix.fn_by_key.find({fn.cls, call.name});
    if (it == ix.fn_by_key.end()) it = ix.fn_by_key.find({"", call.name});
    if (it != ix.fn_by_key.end()) {
        r.targets.insert(it->first);
        return r;
    }
    auto nm = ix.fn_by_name.find(call.name);
    if (nm != ix.fn_by_name.end()) {
        if (nm->second.size() == 1) {
            r.targets.insert(*nm->second.begin());
        } else {
            ++*ambiguous;
        }
    }
    return r;
}

// --- transitive acquisitions ----------------------------------------------

// How a function (key) comes to acquire a rank: directly via a guard, or
// through a call into `via`.
struct Origin {
    bool direct = false;
    std::string file;
    int line = 0;
    Key via;
};

using AcqMap = std::map<Key, std::map<std::string, Origin>>;

std::string chain_string(const AcqMap& acq, Key k, const std::string& rank) {
    std::ostringstream os;
    std::set<Key> seen;
    for (int hops = 0; hops < 24; ++hops) {
        if (!seen.insert(k).second) break;
        auto fit = acq.find(k);
        if (fit == acq.end()) break;
        auto oit = fit->second.find(rank);
        if (oit == fit->second.end()) break;
        const Origin& o = oit->second;
        if (o.direct) {
            os << " -> guard(" << rank << ") in " << qualified(k) << " at " << o.file << ":"
               << o.line;
            return os.str();
        }
        os << " -> " << qualified(k) << " (" << o.file << ":" << o.line << ")";
        k = o.via;
    }
    os << " -> " << rank;
    return os.str();
}

struct Edge {
    std::string from;
    std::string to;
    std::string file;  // witness: where the inner acquisition is triggered
    int line = 0;
    std::string holder;  // where `from` was acquired
    std::string chain;   // human acquisition chain for `to`
};

}  // namespace

AnalyzerConfig default_config() {
    AnalyzerConfig cfg;
    cfg.blocking = {
        // mw::Clock sleeps and libc sleeps/IO that must never run under a lock.
        "sleep_for_seconds", "sleep_for", "sleep_until", "usleep", "nanosleep",
        "fprintf", "printf", "fputs", "fputc", "fwrite", "fread", "fflush",
        "fopen", "fclose", "fsync", "getline", "system",
        // Simulated network hop: delivers frames inline through the injected
        // clock; holding an unrelated lock across it couples tiers.
        "Transport::send",
    };
    // Source-wide rows: each raw facility may be touched only by the one file
    // family that wraps it.
    const std::string sync_home = "src/common/sync.hpp";
    const std::vector<std::string> clock_home = {"src/common/timer.hpp", sync_home};
    const std::string clock_why =
        "wall-clock time goes through mw::Stopwatch (common/timer.hpp) and timed waits "
        "through mw::CondVar, the two sanctioned conversion points";
    // Clock-injected tiers: no wall clock at all, not even the wrappers.
    const std::vector<std::string> clock_idents = {"Stopwatch", "WallClock"};
    // Blocking primitives banned from the lock-free hot path files: one
    // Mutex smuggled into a ring or pool turns the whole submit path back
    // into the contended design ROADMAP item 2 removed. The one sanctioned
    // exception (EpochCell's cold publish mutex) carries an inline allow.
    const std::vector<std::string> blocking_idents = {
        "Mutex", "SharedMutex", "CondVar", "MutexLock", "ReaderLock", "WriterLock"};
    const std::string lockfree_why =
        "this file is on the lock-free hot path (DESIGN.md §15); blocking "
        "primitives belong behind the cold publish boundary";
    cfg.confinement = {
        {"raw-atomic", "", {sync_home}, {"atomic", "atomic_flag", "atomic_ref"},
         "use the instrumented mw::Atomic wrapper (common/sync.hpp) so mw::mc can interleave it",
         Qual::kStd},
        {"naked-thread", "src/", {"src/common/thread_pool."}, {"thread"},
         "route work through mw::ThreadPool so shutdown, exception routing and sanitizer "
         "coverage stay in one place",
         Qual::kStd, Follow::kNotScope},
        {"raw-sync-primitive", "src/", {sync_home},
         {"mutex", "shared_mutex", "timed_mutex", "recursive_mutex", "shared_timed_mutex",
          "condition_variable", "condition_variable_any", "lock_guard", "unique_lock",
          "shared_lock", "scoped_lock"},
         "use mw::Mutex / mw::SharedMutex / mw::CondVar and the RAII guards from "
         "common/sync.hpp (rank-checked, TSA-annotated)",
         Qual::kStd},
        {"raw-assert", "src/", {}, {"assert", "<cassert>"},
         "use MW_CHECK (precondition) or MW_ASSERT / MW_DCHECK (invariant); NDEBUG "
         "silently compiles assert out",
         Qual::kAny, Follow::kCall},
        {"raw-abort", "src/", {"src/common/error.hpp"}, {"abort", "exit", "quick_exit", "_Exit"},
         "fatal paths go through the MW_* macros in common/error.hpp so they print where and why",
         Qual::kStdOrNone, Follow::kCall},
        {"time-arith-confined", "src/", clock_home, {"chrono"}, clock_why, Qual::kStd},
        {"time-arith-confined", "src/", clock_home,
         {"steady_clock", "system_clock", "high_resolution_clock", "clock_gettime",
          "gettimeofday"},
         clock_why},
        {"clock-confinement", "src/serve/", {}, clock_idents,
         "the serving tier is clock-injected; construct a WallClock at the composition root"},
        {"clock-confinement", "src/obs/", {}, clock_idents,
         "trace/metrics timestamps come from the injected mw::Clock so tests stay deterministic"},
        {"clock-confinement", "src/fault/", {}, clock_idents,
         "fault schedules must replay deterministically on the injected mw::Clock"},
        {"clock-confinement", "src/cluster/", {}, clock_idents,
         "link latency and routing clocks are injected; wall time would break simulation"},
        {"clock-confinement", "src/graph/", {}, clock_idents,
         "DAG planning and verification run on the simulated timeline; schedules must replay "
         "bit-identically from any injected mw::Clock"},
        {"lock-free-confinement", "src/common/mpmc_ring.hpp", {}, blocking_idents, lockfree_why},
        {"lock-free-confinement", "src/common/epoch_cell.hpp", {}, blocking_idents, lockfree_why},
        {"lock-free-confinement", "src/serve/sharded_queue.", {}, blocking_idents, lockfree_why},
        {"lock-free-confinement", "src/serve/request_pool.", {}, blocking_idents, lockfree_why},
    };
    cfg.wrappers = {sync_home};
    return cfg;
}

Program load_program(const std::string& root, const AnalyzerConfig& cfg, std::string* error) {
    Program prog;
    fs::path base(root);
    if (!fs::exists(base)) {
        *error = "root does not exist: " + root;
        return prog;
    }
    fs::path scan = base / "src";
    std::string rel_prefix = "src/";
    if (!fs::is_directory(scan)) {
        scan = base;
        rel_prefix.clear();
    }
    std::vector<fs::path> paths;
    for (auto it = fs::recursive_directory_iterator(scan); it != fs::recursive_directory_iterator();
         ++it) {
        if (!it->is_regular_file()) continue;
        const std::string ext = it->path().extension().string();
        if (ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc") {
            paths.push_back(it->path());
        }
    }
    std::sort(paths.begin(), paths.end());
    for (const fs::path& p : paths) {
        std::ifstream in(p, std::ios::binary);
        if (!in) {
            *error = "cannot read " + p.string();
            return prog;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        std::string rel = rel_prefix + fs::relative(p, scan).generic_string();
        LexedFile lf = lex(rel, buf.str());
        scan_file(lf, prog, /*rank_table_only=*/listed(cfg.wrappers, rel));
        prog.files.push_back(std::move(lf));
    }
    return prog;
}

AnalysisResult analyze(Program& prog, const AnalyzerConfig& cfg) {
    AnalysisResult res;
    Indexes ix = build_indexes(prog);

    // Resolve guard expressions to ranks.
    for (FunctionInfo& fn : prog.functions) {
        for (GuardSite& g : fn.guards) {
            auto it = ix.mutex_by_key.find({fn.cls, g.mutex_expr});
            const MutexDecl* decl = nullptr;
            if (it != ix.mutex_by_key.end()) {
                decl = it->second;
            } else {
                auto nm = ix.mutex_by_name.find(g.mutex_expr);
                if (nm != ix.mutex_by_name.end() && nm->second.size() == 1) {
                    decl = nm->second.front();
                }
            }
            if (decl != nullptr && !decl->rank.empty()) {
                g.rank = decl->rank;
            } else {
                ++prog.unresolved_guards;
            }
        }
    }

    // Function order for deterministic traversal: by (file, line).
    std::vector<std::size_t> order(prog.functions.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&prog](std::size_t a, std::size_t b) {
        const FunctionInfo& fa = prog.functions[a];
        const FunctionInfo& fb = prog.functions[b];
        return std::tie(fa.file, fa.line) < std::tie(fb.file, fb.line);
    });

    // Pre-resolve every call once.
    std::vector<std::vector<Resolved>> resolved(prog.functions.size());
    for (std::size_t i : order) {
        const FunctionInfo& fn = prog.functions[i];
        resolved[i].reserve(fn.calls.size());
        for (const CallSite& c : fn.calls) {
            resolved[i].push_back(resolve_call(prog, ix, fn, c, &prog.ambiguous_calls));
        }
    }

    // Transitive acquisition fixpoint: acq[K][rank] = first-seen origin.
    AcqMap acq;
    for (std::size_t i : order) {
        const FunctionInfo& fn = prog.functions[i];
        for (const GuardSite& g : fn.guards) {
            if (g.rank.empty()) continue;
            auto& slot = acq[{fn.cls, fn.name}];
            if (slot.find(g.rank) == slot.end()) {
                slot[g.rank] = Origin{true, fn.file, g.line, {}};
            }
        }
    }
    bool changed = true;
    while (changed) {
        changed = false;
        for (std::size_t i : order) {
            const FunctionInfo& fn = prog.functions[i];
            const Key k{fn.cls, fn.name};
            for (std::size_t ci = 0; ci < fn.calls.size(); ++ci) {
                for (const Key& target : resolved[i][ci].targets) {
                    auto tit = acq.find(target);
                    if (tit == acq.end()) continue;
                    for (const auto& [rank, origin] : tit->second) {
                        (void)origin;
                        auto& slot = acq[k];
                        if (slot.find(rank) == slot.end()) {
                            slot[rank] =
                                Origin{false, fn.file, fn.calls[ci].line, target};
                            changed = true;
                        }
                    }
                }
            }
        }
    }

    // Held-while-acquiring edges, deduped on (from, to), first witness wins.
    std::map<std::pair<std::string, std::string>, Edge> edges;
    auto add_edge = [&edges](Edge e) {
        edges.emplace(std::make_pair(e.from, e.to), std::move(e));
    };
    for (std::size_t i : order) {
        const FunctionInfo& fn = prog.functions[i];
        auto holder_desc = [&fn](const GuardSite& g) {
            return g.rank + " acquired at " + fn.qualified() + " (" + fn.file + ":" +
                   std::to_string(g.line) + ")";
        };
        // Nested guards inside one function.
        for (const GuardSite& g : fn.guards) {
            if (g.rank.empty()) continue;
            for (std::size_t held : g.live_guards) {
                const GuardSite& h = fn.guards[held];
                if (h.rank.empty()) continue;
                Edge e;
                e.from = h.rank;
                e.to = g.rank;
                e.file = fn.file;
                e.line = g.line;
                e.holder = holder_desc(h);
                e.chain = " -> guard(" + g.rank + ") in " + fn.qualified() + " at " + fn.file +
                          ":" + std::to_string(g.line);
                add_edge(std::move(e));
            }
        }
        // Acquisitions reached through calls made under a live guard.
        for (std::size_t ci = 0; ci < fn.calls.size(); ++ci) {
            const CallSite& c = fn.calls[ci];
            if (c.live_guards.empty()) continue;
            for (const Key& target : resolved[i][ci].targets) {
                auto tit = acq.find(target);
                if (tit == acq.end()) continue;
                for (const auto& [rank, origin] : tit->second) {
                    (void)origin;
                    for (std::size_t held : c.live_guards) {
                        const GuardSite& h = fn.guards[held];
                        if (h.rank.empty()) continue;
                        Edge e;
                        e.from = h.rank;
                        e.to = rank;
                        e.file = fn.file;
                        e.line = c.line;
                        e.holder = holder_desc(h);
                        e.chain = fn.qualified() + " (" + fn.file + ":" +
                                  std::to_string(c.line) + ")" + chain_string(acq, target, rank);
                        add_edge(std::move(e));
                    }
                }
            }
        }
    }
    res.edges = edges.size();
    for (const auto& [key, e] : edges) {
        (void)key;
        res.edge_list.push_back({e.from, e.to, e.chain});
    }

    std::vector<Finding> raw;

    // Check 1a: every edge must strictly increase the rank value.
    for (const auto& [key, e] : edges) {
        (void)key;
        auto vf = prog.ranks.value.find(e.from);
        auto vt = prog.ranks.value.find(e.to);
        if (vf == prog.ranks.value.end() || vt == prog.ranks.value.end()) continue;
        if (vt->second > vf->second) continue;
        std::ostringstream msg;
        msg << "acquires " << e.to << "(" << vt->second << ") while holding " << e.from << "("
            << vf->second << ")";
        if (e.from == e.to) {
            msg << " — same-rank re-acquisition (self-deadlock)";
        } else {
            msg << " — contradicts the LockRank order (ranks must strictly increase)";
        }
        msg << "; holding: " << e.holder << "; chain: " << e.chain;
        raw.push_back({e.file, e.line, "lock-order-rank", msg.str()});
    }

    // Check 1b: cycles in the rank graph (the cross-TU inversion story: each
    // direction may look locally plausible; together they deadlock).
    {
        std::map<std::string, std::set<std::string>> g;
        for (const auto& [key, e] : edges) {
            (void)e;
            if (key.first != key.second) g[key.first].insert(key.second);
        }
        // Collect simple cycles via DFS from each node (rank count is tiny).
        std::set<std::set<std::string>> reported;
        for (const auto& [start, outs] : g) {
            (void)outs;
            std::vector<std::string> stack{start};
            std::set<std::string> on_stack{start};
            std::function<void(const std::string&)> dfs = [&](const std::string& at) {
                auto it = g.find(at);
                if (it == g.end()) return;
                for (const std::string& next : it->second) {
                    if (next == start && stack.size() > 1) {
                        std::set<std::string> members(stack.begin(), stack.end());
                        if (!reported.insert(members).second) continue;
                        std::ostringstream msg;
                        msg << "lock-order cycle: ";
                        for (const std::string& r : stack) msg << r << " -> ";
                        msg << start << ";";
                        const Edge* anchor = nullptr;
                        for (std::size_t s = 0; s < stack.size(); ++s) {
                            const std::string& a = stack[s];
                            const std::string& b = s + 1 < stack.size() ? stack[s + 1] : start;
                            const Edge& e = edges.at({a, b});
                            msg << " " << a << "->" << b << " via " << e.chain << ";";
                            if (anchor == nullptr ||
                                prog.ranks.value.at(a) >
                                    prog.ranks.value.at(anchor->from)) {
                                anchor = &e;
                            }
                        }
                        raw.push_back({anchor->file, anchor->line, "lock-order-cycle",
                                       msg.str()});
                        continue;
                    }
                    if (on_stack.count(next) != 0) continue;
                    stack.push_back(next);
                    on_stack.insert(next);
                    dfs(next);
                    on_stack.erase(next);
                    stack.pop_back();
                }
            };
            dfs(start);
        }
    }

    // Check 2: blocking calls under a live guard.
    std::set<std::string> blocking_bare;
    std::set<std::string> blocking_qualified;
    for (const std::string& b : cfg.blocking) {
        if (b.find("::") == std::string::npos) {
            blocking_bare.insert(b);
        } else {
            blocking_qualified.insert(b);
        }
    }
    for (std::size_t i : order) {
        const FunctionInfo& fn = prog.functions[i];
        for (std::size_t ci = 0; ci < fn.calls.size(); ++ci) {
            const CallSite& c = fn.calls[ci];
            if (c.live_guards.empty()) continue;
            bool blocks = blocking_bare.count(c.name) != 0;
            if (!blocks) {
                const Resolved& r = resolved[i][ci];
                for (const Key& t : r.targets) {
                    if (blocking_qualified.count(qualified(t)) != 0) blocks = true;
                }
                if (!r.recv_type.empty() &&
                    blocking_qualified.count(r.recv_type + "::" + c.name) != 0) {
                    blocks = true;
                }
            }
            if (!blocks) continue;
            std::string held;
            for (std::size_t hg : c.live_guards) {
                if (fn.guards[hg].rank.empty()) continue;
                if (!held.empty()) held += ", ";
                held += fn.guards[hg].rank;
            }
            if (held.empty()) held = "<unresolved mutex>";
            std::ostringstream msg;
            msg << "blocking call `" << c.name << "` in " << fn.qualified()
                << " while holding " << held
                << "; move it outside the critical section or justify with a suppression";
            raw.push_back({fn.file, c.line, "blocking-under-lock", msg.str()});
        }
    }

    // Checks 3 + 4: the token-rule table, and justified relaxed ordering.
    for (const LexedFile& f : prog.files) {
        std::vector<const ConfinementRule*> rules;
        for (const ConfinementRule& rule : cfg.confinement) {
            if (has_prefix(f.path, rule.prefix) && !listed(rule.sanctioned, f.path)) {
                rules.push_back(&rule);
            }
        }
        std::set<std::pair<int, std::string>> reported;  // (line, check): one finding each
        auto report = [&](int line, const ConfinementRule& rule, const std::string& spelled) {
            if (reported.emplace(line, rule.check).second) {
                raw.push_back({f.path, line, rule.check, "`" + spelled + "` — " + rule.why});
            }
        };
        auto bans = [](const ConfinementRule& rule, const std::string& text) {
            return std::find(rule.banned.begin(), rule.banned.end(), text) != rule.banned.end();
        };
        for (const auto& [line, header] : f.includes) {
            for (const ConfinementRule* rule : rules) {
                if (bans(*rule, header)) report(line, *rule, "#include " + header);
            }
        }
        const bool relaxed_exempt = listed(cfg.wrappers, f.path);
        // Directive lines are checked like code: a `#define` body is a use.
        for (const std::vector<Token>* toks : {&f.tokens, &f.directive_tokens}) {
            const std::size_t count = toks->size();
            auto punct_at = [toks, count](std::size_t at, const char* text) {
                return at < count && (*toks)[at].kind == Tok::kPunct && (*toks)[at].text == text;
            };
            for (std::size_t ti = 0; ti < count; ++ti) {
                const Token& t = (*toks)[ti];
                if (t.kind != Tok::kIdent) continue;
                if (t.text == "memory_order_relaxed" && !relaxed_exempt) {
                    auto cit = f.comments.find(t.line);
                    const bool justified = cit != f.comments.end() &&
                                           cit->second.find("relaxed:") != std::string::npos;
                    if (!justified) {
                        raw.push_back({f.path, t.line, "relaxed-order-justified",
                                       "memory_order_relaxed without a same-line `// relaxed: "
                                       "...` justification"});
                    }
                }
                const bool scoped = ti >= 1 && punct_at(ti - 1, "::");
                const Token* ns = scoped && ti >= 2 ? &(*toks)[ti - 2] : nullptr;
                const bool std_scoped = ns != nullptr && ns->kind == Tok::kIdent &&
                                        (ns->text == "std" || ns->text == "stdsync");
                // `::name`: no scope name before the `::` (`return ::exit(1)`
                // counts; `T<U>::name` names a class member).
                const bool global_scoped =
                    scoped && (ns == nullptr || ns->text == "return" ||
                               (ns->kind == Tok::kPunct && ns->text != ">"));
                for (const ConfinementRule* rule : rules) {
                    if (!bans(*rule, t.text)) continue;
                    if (rule->qual == Qual::kStd && !std_scoped) continue;
                    if (rule->qual == Qual::kStdOrNone && scoped && !std_scoped &&
                        !global_scoped) {
                        continue;
                    }
                    if (rule->follow == Follow::kCall && !punct_at(ti + 1, "(")) continue;
                    if (rule->follow == Follow::kNotScope && punct_at(ti + 1, "::")) continue;
                    report(t.line, *rule,
                           std_scoped      ? ns->text + "::" + t.text
                           : global_scoped ? "::" + t.text
                                           : t.text);
                }
            }
        }
    }

    // Suppressions: `mw-analyze: allow(<check>)` in a comment on the finding
    // line, or in the standalone comment block immediately above it.
    std::map<std::string, const LexedFile*> file_by_path;
    std::map<std::string, std::set<int>> token_lines;
    for (const LexedFile& f : prog.files) {
        file_by_path[f.path] = &f;
        std::set<int>& lines = token_lines[f.path];
        for (const Token& t : f.tokens) lines.insert(t.line);
        for (const Token& t : f.directive_tokens) lines.insert(t.line);
    }
    for (Finding& fd : raw) {
        auto fit = file_by_path.find(fd.file);
        bool allowed = false;
        if (fit != file_by_path.end()) {
            const LexedFile& lf = *fit->second;
            const std::set<int>& lines = token_lines[fd.file];
            const std::string needle = "mw-analyze: allow(" + fd.check + ")";
            auto comment_allows = [&lf, &needle](int line) {
                auto cit = lf.comments.find(line);
                return cit != lf.comments.end() &&
                       cit->second.find(needle) != std::string::npos;
            };
            allowed = comment_allows(fd.line);
            for (int line = fd.line - 1; !allowed && line > 0; --line) {
                if (lines.count(line) != 0) break;           // code or directive line: stop
                if (lf.comments.count(line) == 0) break;     // blank line: stop
                allowed = comment_allows(line);
            }
        }
        if (allowed) {
            ++res.suppressed;
        } else {
            res.findings.push_back(std::move(fd));
        }
    }
    std::sort(res.findings.begin(), res.findings.end(), [](const Finding& a, const Finding& b) {
        return std::tie(a.file, a.line, a.check, a.message) <
               std::tie(b.file, b.line, b.check, b.message);
    });
    return res;
}

std::string to_json(const Program& prog, const AnalysisResult& res) {
    auto esc = [](const std::string& s) {
        std::string out;
        out.reserve(s.size() + 8);
        for (char c : s) {
            switch (c) {
                case '"': out += "\\\""; break;
                case '\\': out += "\\\\"; break;
                case '\n': out += "\\n"; break;
                case '\t': out += "\\t"; break;
                default:
                    if (static_cast<unsigned char>(c) < 0x20) {
                        char buf[8];
                        std::snprintf(buf, sizeof buf, "\\u%04x", c);
                        out += buf;
                    } else {
                        out += c;
                    }
            }
        }
        return out;
    };
    std::ostringstream os;
    os << "{\n  \"findings\": [";
    for (std::size_t i = 0; i < res.findings.size(); ++i) {
        const Finding& f = res.findings[i];
        os << (i == 0 ? "\n" : ",\n");
        os << "    {\"file\": \"" << esc(f.file) << "\", \"line\": " << f.line
           << ", \"check\": \"" << esc(f.check) << "\", \"message\": \"" << esc(f.message)
           << "\"}";
    }
    os << (res.findings.empty() ? "]" : "\n  ]") << ",\n";
    os << "  \"summary\": {\n";
    os << "    \"files\": " << prog.files.size() << ",\n";
    os << "    \"functions\": " << prog.functions.size() << ",\n";
    os << "    \"mutexes\": " << prog.mutexes.size() << ",\n";
    os << "    \"ranks\": " << prog.ranks.entries.size() << ",\n";
    os << "    \"edges\": " << res.edges << ",\n";
    os << "    \"unresolved_guards\": " << prog.unresolved_guards << ",\n";
    os << "    \"ambiguous_calls\": " << prog.ambiguous_calls << ",\n";
    os << "    \"suppressed\": " << res.suppressed << ",\n";
    os << "    \"findings\": " << res.findings.size() << "\n";
    os << "  }\n}\n";
    return os.str();
}

}  // namespace mwa
