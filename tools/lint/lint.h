// wcds_lint: project-aware static analysis for the wcds repository.
//
// clang-tidy and the sanitizers catch generic C++ bugs; this tool enforces
// the invariants only *this* project knows about.  It is dependency-free
// (standard library only), runs under ctest against the repo tree, and
// reports file:line diagnostics that CI treats as errors.
//
// Two phases: phase 1 lexes each file once and distills it into a FileIndex
// (include edges, module assignment, declaration table, usage events,
// cross-file registry facts, suppressions, file-local diagnostics); phase 2
// (Linter::run) resolves includes against the scanned set and runs the
// cross-file rules over the whole-program index.
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
//   message-type-registry  every enumerator of an `enum *MessageType :
//                          sim::MessageType` must have a trace-name entry
//                          (`case kX: return "...";`) somewhere — the
//                          cross-file table sync -Wswitch cannot see.
//   metric-doc-sync        every metric name literal recorded through
//                          obs::Recorder must appear in the
//                          docs/OBSERVABILITY.md registry.
//   include-hygiene        no parent-relative (`../`) or <bits/...>
//                          includes; project includes are src-root
//                          relative (include resolution does not normalise
//                          `../`, so such an edge would escape layer-dag).
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
//
// Suppression: a `// wcds-lint: allow(<rule>[,<rule>...])` comment silences
// the named rules on its own line; a comment-only line silences them on the
// following line as well.
#pragma once

#include <set>
#include <string>
#include <utility>
#include <vector>

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

// --- the semantic index (phase 1 output) -----------------------------------

// One `#include "..."` edge.  `resolved` is the repo-relative path of the
// included file when it is part of the scanned tree ("" = external header),
// filled in by Linter::run against the registered file set.
struct IncludeEdge {
  int line = 0;
  std::string written;   // path as written between the quotes
  std::string resolved;  // repo-relative, or "" when not a project file
};

// A declared identifier of a type the determinism rules track.
// kind: "unordered" (std::unordered_{map,set,multimap,multiset} or a local
// alias of one), "pointer" (raw pointer object).
struct Decl {
  int line = 0;
  std::string kind;
  std::string name;
};

// A container-iteration event: a range-for over `name`, or `name.begin()` /
// `name->begin()` (how = "range-for" | "begin").  A range-for whose target
// expression spells an unordered container type inline is recorded with
// name = "" and how = "range-for-inline" and is unconditionally unordered.
struct IterUse {
  int line = 0;
  std::string how;
  std::string name;
};

// A relational comparison (`<`, `>`, `<=`, `>=`) between two plain
// identifiers; phase 2 flags it when both sides are known raw pointers.
struct CompareUse {
  int line = 0;
  std::string lhs;
  std::string rhs;
};

// An enumerator of an `enum *MessageType` (message-type-registry).
struct EnumeratorFact {
  int line = 0;
  std::string enum_name;
  std::string name;
};

// A metric-name literal recorded through obs::Recorder (metric-doc-sync).
struct MetricFact {
  int line = 0;
  std::string name;
};

// The non-empty per-line suppression sets, post comment-line propagation.
struct LineAllow {
  int line = 0;
  std::vector<std::string> rules;  // sorted
};

struct FileIndex {
  std::string path;    // repo-relative, '/'-separated
  std::string module;  // "" = not assigned to a layered module

  std::vector<IncludeEdge> includes;
  std::vector<Decl> decls;
  std::vector<IterUse> iter_uses;
  std::vector<CompareUse> compares;
  std::vector<EnumeratorFact> enumerators;
  std::vector<std::string> named_cases;  // enumerators with a trace name
  std::vector<MetricFact> metric_uses;
  std::vector<LineAllow> allows;
  // Diagnostics from the file-local rules, pre-suppression and before the
  // enabled_rules filter (both applied by Linter::run).
  std::vector<Diagnostic> diagnostics;
};

struct SemanticIndex {
  std::vector<FileIndex> files;  // sorted by path
};

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

  // Builds the semantic index (phase 1), runs every enabled rule over it
  // (phase 2).  Diagnostics are sorted by (file, line, rule) and already
  // filtered by suppressions.
  [[nodiscard]] std::vector<Diagnostic> run();

  // The index built by the last run() (includes resolved, modules assigned).
  [[nodiscard]] const SemanticIndex& index() const { return index_; }

 private:
  [[nodiscard]] bool rule_enabled(const std::string& rule) const;

  Config config_;
  std::vector<std::pair<std::string, std::string>> pending_;  // path, content
  SemanticIndex index_;
};

}  // namespace wcds::lint
