// wcds_lint: project-aware static analysis for the wcds repository.
//
// clang-tidy and the sanitizers catch generic C++ bugs; this tool enforces
// the invariants only *this* project knows about.  It is dependency-free
// (standard library only), runs under ctest against the repo tree, and
// reports file:line diagnostics that CI treats as errors.
//
// Since PR 6 the tool is a multi-phase semantic analyzer rather than a line
// lexer: phase 1 builds a repo-wide semantic index (tools/lint/index.h) —
// include graph, module assignment, declaration table, usage events, and
// per-function control-flow graphs (tools/lint/cfg.h) — phase 2 runs flow-
// and scope-aware rules over that index, and phase 3 runs path-sensitive
// rules over the CFGs and the cross-TU call table they imply.
//
// Rules (ids are stable; see docs/CHECKING.md "Static analysis layers"):
//
//   no-bare-assert         assert()/abort() in src/ must go through the
//                          WCDS_CHECK / WCDS_DCHECK / WCDS_REQUIRE contract
//                          macros so failures route through the pluggable
//                          handler (src/check/check.h).
//   paper-constant         the Lemma 1/2 packing literals (5, 23, 24, 47,
//                          48) outside src/mis/properties.h and
//                          src/check/audit.* must reference the named
//                          constants in src/check/audit.h.
//   hot-path-alloc         std::map / std::function / std::shared_ptr /
//                          bare `new` are forbidden in the allocation-free
//                          simulator delivery files (docs/PERFORMANCE.md);
//                          flow-aware since phase 3: an allocation (bare
//                          new, make_shared, make_unique) reachable inside
//                          a loop in the hot modules (sim, parallel,
//                          service) fires wherever it sits in the file.
//   message-type-registry  every enumerator of an `enum *MessageType :
//                          sim::MessageType` must have a trace-name entry
//                          (`case kX: return "...";`) somewhere — the
//                          cross-file table sync -Wswitch cannot see.
//   metric-doc-sync        every metric name literal recorded through
//                          obs::Recorder must appear in the
//                          docs/OBSERVABILITY.md registry.
//   pragma-once            headers start with exactly one `#pragma once`.
//   include-hygiene        no parent-relative (`../`) or <bits/...>
//                          includes; project includes are src-root
//                          relative.
//   no-unordered-iteration iterating a std::unordered_{map,set} (range-for
//                          or .begin()) in a trace-affecting module: the
//                          iteration order is implementation-defined and
//                          would leak into traces, breaking the
//                          byte-identical reproducibility contract.
//   no-pointer-order       ordering, sorting or hashing by raw pointer
//                          value (std::less<T*>, pointer-keyed std::set /
//                          std::map, std::hash<T*>, relational comparison
//                          of raw pointers): addresses change run to run.
//   no-ambient-entropy     std::random_device, rand()/srand(), std::time,
//                          clock(), *_clock::now() outside the allowlisted
//                          clock/seed boundary files: all randomness must
//                          come from seeded geom:: generators, all timing
//                          from the sim clock.
//   layer-dag              the declared module DAG (Config::modules) is
//                          enforced over the include graph: a module may
//                          only include itself and its declared deps, the
//                          declared graph must be acyclic, and file-level
//                          include cycles are reported.
//   facade-only            the per-algorithm construction entrypoints
//                          (core::algorithm1/2, protocols::run_algorithm1/2)
//                          are implementation detail; calls outside the
//                          implementing modules (wcds, protocols, facade)
//                          and benchmark BM_ bodies must go through
//                          core::build() / bench::build_with().
//   lock-order             the cross-file lock-acquisition graph (scoped
//                          base::MutexLock declarations, WCDS_REQUIRES /
//                          WCDS_ACQUIRE annotations, and transitive
//                          acquisitions through calls) must be acyclic; a
//                          cycle is a potential deadlock.
//   audit-after-mutation   in the audited modules (maintenance, wcds) every
//                          CFG path that mutates backbone state must reach
//                          a check::audit_invariants / maybe_audit call
//                          before returning; private mutating helpers
//                          bubble the obligation to their callers.
//   rng-draw-discipline    in the seeded-stream scopes (fault::Injector,
//                          service/) a branch sibling must not skip an RNG
//                          draw the other path performs: the stream
//                          position must be a pure function of the call
//                          sequence, never of data-dependent branches.
//
// Suppression: a `// wcds-lint: allow(<rule>[,<rule>...])` comment silences
// the named rules on its own line; a comment-only line silences them on the
// following line as well.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lint/index.h"

namespace wcds::lint {

struct Diagnostic {
  std::string file;  // repo-relative, '/'-separated
  int line = 0;      // 1-based
  std::string rule;
  std::string message;

  friend bool operator==(const Diagnostic&, const Diagnostic&) = default;
};

// "<file>:<line>: error: [<rule>] <message>"
[[nodiscard]] std::string format_diagnostic(const Diagnostic& diagnostic);

// "::error file=<file>,line=<line>::[<rule>] <message>" — GitHub Actions
// error-annotation form, surfaced inline on the PR diff.
[[nodiscard]] std::string format_diagnostic_github(const Diagnostic& diagnostic);

// A complete SARIF 2.1.0 document for the diagnostics (one run, every rule
// in the driver's rule table), consumable by GitHub code scanning.
[[nodiscard]] std::string format_sarif(
    const std::vector<Diagnostic>& diagnostics);

struct RuleInfo {
  std::string name;
  std::string summary;
};

// Every rule the engine knows, in reporting order.
[[nodiscard]] const std::vector<RuleInfo>& rules();

// One module of the declared layering DAG: the module may include itself
// and the modules in `deps` (direct declaration, not transitive closure).
struct ModuleSpec {
  std::string name;
  std::vector<std::string> deps;
};

struct Config {
  // Files allowed to spell the packing constants literally: the property
  // measurers and the auditor that define/own them.
  std::vector<std::string> paper_constant_exempt = {
      "src/mis/properties.h",
      "src/mis/properties.cpp",
      "src/check/audit.h",
      "src/check/audit.cpp",
  };

  // Allocation-free hot-path files guarded by hot-path-alloc.
  std::vector<std::string> hot_path_files = {
      "src/sim/runtime.h",
      "src/sim/runtime.cpp",
      "src/sim/message.h",
      "src/sim/fault_hook.h",
  };

  // Contents of the metric registry document; empty disables
  // metric-doc-sync.  `observability_doc_name` is only used in messages.
  std::string observability_doc;
  std::string observability_doc_name = "docs/OBSERVABILITY.md";

  // --- determinism-rule scopes ---------------------------------------------

  // Modules whose container-iteration order can reach a trace
  // (no-unordered-iteration fires only there).  udg/ is included because
  // topology construction fixes the edge order every later trace depends on.
  std::set<std::string> trace_affecting_modules = {
      "sim", "fault", "protocols", "maintenance",
      "mis", "wcds",  "parallel",  "udg",      "service",
  };
  // Extra path prefixes treated as trace-affecting regardless of module
  // (the tests profile adds "tests/": a flaky iteration order in a test
  // that replays traces is a flaky test).
  std::vector<std::string> trace_affecting_prefixes;

  // Files subject to no-ambient-entropy…
  std::vector<std::string> entropy_scope_prefixes = {"src/"};
  // …minus the declared clock/seed boundary (the one place wall-clock reads
  // are the point; everything else must justify itself with an allow()).
  std::vector<std::string> entropy_boundary_files = {
      "src/obs/recorder.cpp",
  };

  // --- declared module layering DAG (layer-dag) ----------------------------

  // Directory-prefix defaults: a file under `first` belongs to module
  // `second` unless an exact override below says otherwise.
  std::vector<std::pair<std::string, std::string>> module_prefixes;
  // Exact-path overrides.  Two ship by default, mirroring the CMake library
  // split: src/check/audit.* is module `audit` (it depends on graph/mis and
  // the result record, unlike the dependency-free contract macros), and
  // src/wcds/wcds_result.h is the vocabulary-type module `wcds_types` the
  // auditor is allowed to see without creating an audit <-> wcds cycle.
  std::vector<std::pair<std::string, std::string>> module_overrides;
  // The DAG itself; default_config() declares the repo's layering.  Empty
  // disables layer-dag.
  std::vector<ModuleSpec> modules;

  // --- phase-3 control-flow rule scopes ------------------------------------

  // audit-after-mutation: modules whose functions carry the audit
  // obligation.  A function with no caller inside these modules is a root;
  // roots whose mutation can reach `return` without an audit are diagnosed
  // (helpers bubble the obligation to their call sites).
  std::set<std::string> audit_scope_modules = {"maintenance", "wcds"};
  // Members treated as backbone state: assignment targets, or receivers of
  // one of the mutating container methods below.
  std::set<std::string> backbone_state = {"mis_", "bridges_", "active_",
                                          "points_", "graph_"};
  std::set<std::string> backbone_mutating_methods = {
      "assign", "clear",     "erase",  "insert",
      "emplace", "push_back", "resize", "swap"};
  // Calls that mutate backbone state wholesale: DynamicWcds's incremental
  // graph patches (maintenance::IncrementalUdg).
  std::set<std::string> backbone_mutators = {"relocate", "set_active"};
  // Calls that discharge the audit obligation, and the gate whose presence
  // in a branch condition counts as an audit point (the sanctioned
  // `if (check::audits_enabled()) check::audit_invariants(...)` idiom).
  std::set<std::string> audit_calls = {"audit_invariants", "maybe_audit"};
  std::string audit_gate = "audits_enabled";

  // rng-draw-discipline: path prefixes whose functions own seeded RNG
  // streams, and the draw methods whose per-path counts must agree.
  std::vector<std::string> rng_scope_prefixes = {"src/fault/",
                                                 "src/service/"};
  std::set<std::string> rng_draw_methods = {"next", "next_double",
                                            "next_below"};

  // Flow-aware hot-path-alloc: modules where an allocation event (bare
  // new, make_shared, make_unique) inside a loop is a diagnostic.  The
  // line-local hot_path_files ban above is unchanged — those files must be
  // allocation-free everywhere, not just in loops.
  std::set<std::string> hot_loop_modules = {"sim", "parallel", "service"};

  // Modules allowed to call the per-algorithm construction entrypoints
  // directly (facade-only): the algorithms' own module, the protocol
  // drivers, and the facade that wraps them.  BM_ benchmark bodies are
  // exempt in place — measuring the raw entrypoint is their point.
  std::vector<std::string> facade_only_exempt_modules = {"wcds", "protocols",
                                                         "facade"};

  // Rules to run; empty means all.
  std::set<std::string> enabled_rules;
};

// The Config all callers should start from: module prefixes/overrides and
// the declared DAG populated for the repo tree.  (Config{} leaves the DAG
// empty so unit tests can build minimal layerings from scratch.)
[[nodiscard]] Config default_config();

// The module a path belongs to under `config` ("" when unassigned).
[[nodiscard]] std::string module_for(const std::string& path,
                                     const Config& config);

// Fingerprint of the Config fields phase 1 depends on; cached index entries
// are only reused when it matches.
[[nodiscard]] std::uint64_t config_fingerprint(const Config& config);

// One analyzed file in three aligned channels (same line/column layout):
//   raw   verbatim source lines;
//   code  comments blanked with spaces, string literals kept — for rules
//         that read literals (includes, metric names, trace tables);
//   pure  comments AND string/char contents blanked — for token rules that
//         must not fire on prose.
struct SourceFile {
  std::string path;
  std::vector<std::string> raw;
  std::vector<std::string> code;
  std::vector<std::string> pure;
  // Per-line rule suppressions parsed from wcds-lint: allow(...) comments.
  std::vector<std::set<std::string>> allowed;
};

// Lexes `content` into the three channels; exposed for the self-tests.
[[nodiscard]] SourceFile annotate_source(std::string path,
                                         const std::string& content);

// Phase 1 for one file: lexes and distills `content` into a FileIndex
// (facts + file-local diagnostics).  Exposed for the index unit tests.
[[nodiscard]] FileIndex analyze_file(const std::string& path,
                                     const std::string& content,
                                     const Config& config);

class Linter {
 public:
  explicit Linter(Config config = default_config());

  // Register an in-memory file (tests) or one loaded from disk (CLI).
  void add_file(std::string path, const std::string& content);

  // Seed phase 1 with a previously serialized index: files whose content
  // hash and config fingerprint match their cached entry skip re-analysis.
  void set_cached_index(SemanticIndex cache);

  // Number of files served from the cache by the last run().
  [[nodiscard]] std::size_t cache_hits() const { return cache_hits_; }

  // Builds the semantic index (phase 1, cache-aware), runs every enabled
  // rule over it (phase 2).  Diagnostics are sorted by (file, line, rule)
  // and already filtered by suppressions.
  [[nodiscard]] std::vector<Diagnostic> run();

  // The index built by the last run() (includes resolved, modules assigned).
  [[nodiscard]] const SemanticIndex& index() const { return index_; }

 private:
  [[nodiscard]] bool rule_enabled(const std::string& rule) const;

  Config config_;
  std::vector<std::pair<std::string, std::string>> pending_;  // path, content
  SemanticIndex cache_;
  SemanticIndex index_;
  std::size_t cache_hits_ = 0;
};

}  // namespace wcds::lint
