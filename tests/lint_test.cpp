// wcds_lint engine tests: the lexer's channel separation, every rule firing
// on a seeded violation with the exact rule id and line, and every rule
// honoring a `wcds-lint: allow(...)` suppression.
#include "lint/lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace wcds::lint {
namespace {

std::vector<Diagnostic> lint_one(const std::string& path,
                                 const std::string& content,
                                 Config config = {}) {
  Linter linter(std::move(config));
  linter.add_file(path, content);
  return linter.run();
}

bool has(const std::vector<Diagnostic>& diags, const std::string& rule,
         int line) {
  return std::any_of(diags.begin(), diags.end(), [&](const Diagnostic& d) {
    return d.rule == rule && d.line == line;
  });
}

// ---------------------------------------------------------------------------
// Lexer

TEST(LintLexer, BlanksCommentsInCodeChannel) {
  const SourceFile file =
      annotate_source("src/a.cpp", "int x; // assert(x) in prose\n");
  ASSERT_EQ(file.code.size(), 1u);
  EXPECT_EQ(file.code[0].find("assert"), std::string::npos);
  EXPECT_NE(file.raw[0].find("assert"), std::string::npos);
  // Channels stay column-aligned.
  EXPECT_EQ(file.code[0].size(), file.raw[0].size());
  EXPECT_EQ(file.pure[0].size(), file.raw[0].size());
}

TEST(LintLexer, BlanksStringContentsOnlyInPureChannel) {
  const SourceFile file =
      annotate_source("src/a.cpp", "auto s = \"assert(47)\";\n");
  EXPECT_NE(file.code[0].find("assert(47)"), std::string::npos);
  EXPECT_EQ(file.pure[0].find("assert"), std::string::npos);
  EXPECT_EQ(file.pure[0].find("47"), std::string::npos);
}

TEST(LintLexer, MultiLineBlockCommentBlanked) {
  const SourceFile file =
      annotate_source("src/a.cpp", "/* new\n   std::map */ int y;\n");
  EXPECT_EQ(file.pure[0].find("new"), std::string::npos);
  EXPECT_EQ(file.pure[1].find("std::map"), std::string::npos);
  EXPECT_NE(file.pure[1].find("int y;"), std::string::npos);
}

TEST(LintLexer, DigitSeparatorIsNotACharLiteral) {
  // If the ' opened a char literal, the rest of the line would be blanked
  // out of the pure channel.
  const SourceFile file =
      annotate_source("src/a.cpp", "auto n = 100'000; int z = 1;\n");
  EXPECT_NE(file.pure[0].find("int z = 1;"), std::string::npos);
}

TEST(LintLexer, ParsesSuppressionsPerLine) {
  const SourceFile file = annotate_source(
      "src/a.cpp",
      "int a;  // wcds-lint: allow(rule-a, rule-b)\n"
      "// wcds-lint: allow(rule-c)\n"
      "int b;\n");
  ASSERT_EQ(file.allowed.size(), 3u);
  EXPECT_EQ(file.allowed[0].count("rule-a"), 1u);
  EXPECT_EQ(file.allowed[0].count("rule-b"), 1u);
  // A comment-only line covers the next line too.
  EXPECT_EQ(file.allowed[1].count("rule-c"), 1u);
  EXPECT_EQ(file.allowed[2].count("rule-c"), 1u);
  EXPECT_EQ(file.allowed[2].count("rule-a"), 0u);
}

// ---------------------------------------------------------------------------
// no-bare-assert

TEST(LintRules, NoBareAssertFires) {
  const auto diags = lint_one("src/a.cpp",
                              "#include <cassert>\n"
                              "void f(int x) {\n"
                              "  assert(x > 0);\n"
                              "}\n");
  EXPECT_TRUE(has(diags, "no-bare-assert", 3));
}

TEST(LintRules, NoBareAssertIgnoresCommentsStringsAndOtherTrees) {
  EXPECT_TRUE(lint_one("src/a.cpp", "// assert(x)\n").empty());
  EXPECT_TRUE(lint_one("src/a.cpp", "auto s = \"assert(x)\";\n").empty());
  EXPECT_TRUE(lint_one("src/a.cpp", "int my_assert_count = 0;\n").empty());
  // Only src/ must route through the contract macros.
  EXPECT_TRUE(lint_one("bench/a.cpp", "void f() { assert(1); }\n").empty());
}

TEST(LintRules, NoBareAssertSuppressed) {
  const auto diags = lint_one(
      "src/a.cpp", "void f() { std::abort(); }  // wcds-lint: allow(no-bare-assert)\n");
  EXPECT_TRUE(diags.empty());
}

// ---------------------------------------------------------------------------
// paper-constant

TEST(LintRules, PaperConstantFires) {
  const auto diags = lint_one("src/wcds/a.cpp",
                              "int bound(int mis) {\n"
                              "  return 47 * mis;\n"
                              "}\n");
  EXPECT_TRUE(has(diags, "paper-constant", 2));
}

TEST(LintRules, PaperConstantSkipsNonMatchingLiterals) {
  // 470, 4.7, 0x47-as-word, 5u-suffix boundary handling: none of these are
  // the bare packing literals.
  const auto diags = lint_one("src/a.cpp",
                              "int a = 470;\n"
                              "double b = 4.7;\n"
                              "double c = 23.5;\n"
                              "int d = 247;\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintRules, PaperConstantExemptFilesAndSuppression) {
  EXPECT_TRUE(
      lint_one("src/check/audit.h", "#pragma once\nint k = 47;\n").empty());
  EXPECT_TRUE(
      lint_one("src/a.cpp", "int k = 47;  // wcds-lint: allow(paper-constant)\n")
          .empty());
}

// ---------------------------------------------------------------------------
// message-type-registry

TEST(LintRules, MessageTypeRegistryFires) {
  const auto diags = lint_one("src/protocols/p.h",
                              "enum DemoMessageType : sim::MessageType {\n"
                              "  kMsgPing = 1,  // wcds-lint: allow(paper-constant)\n"
                              "  kMsgPong = 2,\n"
                              "};\n"
                              "const char* demo_message_name(sim::MessageType t) {\n"
                              "  switch (t) {\n"
                              "    case kMsgPing: return \"PING\";\n"
                              "    default: return \"?\";\n"
                              "  }\n"
                              "}\n");
  // kMsgPing has a trace-name entry; kMsgPong does not.
  EXPECT_FALSE(has(diags, "message-type-registry", 2));
  EXPECT_TRUE(has(diags, "message-type-registry", 3));
}

TEST(LintRules, MessageTypeRegistrySeesCrossFileCases) {
  Linter linter;
  linter.add_file("src/protocols/p.h",
                  "#pragma once\n"
                  "enum DemoMessageType : sim::MessageType {\n"
                  "  kMsgPing = 1,  // wcds-lint: allow(paper-constant)\n"
                  "};\n");
  linter.add_file("src/protocols/p.cpp",
                  "const char* demo_message_name(sim::MessageType t) {\n"
                  "  switch (t) {\n"
                  "    case kMsgPing:\n"
                  "      return \"PING\";\n"
                  "    default: return \"?\";\n"
                  "  }\n"
                  "}\n");
  EXPECT_TRUE(linter.run().empty());
}

TEST(LintRules, MessageTypeRegistrySuppressed) {
  const auto diags =
      lint_one("src/protocols/p.h",
               "#pragma once\n"
               "enum DemoMessageType : sim::MessageType {\n"
               "  kMsgSecret = 9,  // wcds-lint: allow(message-type-registry)\n"
               "};\n");
  EXPECT_TRUE(diags.empty());
}

// ---------------------------------------------------------------------------
// metric-doc-sync

TEST(LintRules, MetricDocSyncFires) {
  Config config;
  config.observability_doc = "Registry: `demo/documented` only.\n";
  const auto diags = lint_one("src/wcds/a.cpp",
                              "void f(obs::Recorder* r) {\n"
                              "  r->metrics().add(\"demo/documented\", 1);\n"
                              "  r->metrics().add(\"demo/missing\", 1);\n"
                              "}\n",
                              config);
  EXPECT_FALSE(has(diags, "metric-doc-sync", 2));
  EXPECT_TRUE(has(diags, "metric-doc-sync", 3));
}

TEST(LintRules, MetricDocSyncPlaceholderFamilyAndPhaseTimer) {
  Config config;
  config.observability_doc =
      "Families: `demo/per_type/<k>` and `phase_ms/<phase>`.\n";
  const auto diags =
      lint_one("src/wcds/a.cpp",
               "void f(obs::Recorder* r) {\n"
               "  r->metrics().add(\"demo/per_type/3\", 1);\n"
               "  obs::PhaseTimer timer(r, \"demo/total\");\n"
               "}\n",
               config);
  EXPECT_TRUE(diags.empty());
}

TEST(LintRules, MetricDocSyncSuppressedAndDisabledWithoutDoc) {
  Config config;
  config.observability_doc = "nothing documented\n";
  const auto diags = lint_one(
      "src/wcds/a.cpp",
      "void f(obs::Recorder* r) {\n"
      "  r->metrics().add(\"demo/adhoc\", 1);  // wcds-lint: allow(metric-doc-sync)\n"
      "}\n",
      config);
  EXPECT_TRUE(diags.empty());
  // An empty doc (partial checkout) disables the rule entirely.
  Config no_doc;
  no_doc.observability_doc.clear();
  EXPECT_TRUE(lint_one("src/wcds/a.cpp",
                       "void f(obs::Recorder* r) {\n"
                       "  r->metrics().add(\"demo/adhoc\", 1);\n"
                       "}\n",
                       no_doc)
                  .empty());
}

// ---------------------------------------------------------------------------
// include-hygiene

TEST(LintRules, IncludeHygieneFires) {
  const auto diags = lint_one("src/a.cpp",
                              "#include \"../geom/rng.h\"\n"
                              "#include <bits/stdc++.h>\n"
                              "#include \"geom/rng.h\"\n");
  EXPECT_TRUE(has(diags, "include-hygiene", 1));
  EXPECT_TRUE(has(diags, "include-hygiene", 2));
  EXPECT_FALSE(has(diags, "include-hygiene", 3));
}

TEST(LintRules, IncludeHygieneSuppressed) {
  const auto diags = lint_one(
      "src/a.cpp",
      "#include \"../geom/rng.h\"  // wcds-lint: allow(include-hygiene)\n");
  EXPECT_TRUE(diags.empty());
}

// ---------------------------------------------------------------------------
// no-unordered-iteration

TEST(LintRules, NoUnorderedIterationRangeForFires) {
  const auto diags = lint_one("src/sim/a.cpp",
                              "#include <unordered_map>\n"
                              "std::unordered_map<int, int> table;\n"
                              "int sum() {\n"
                              "  int s = 0;\n"
                              "  for (const auto& [k, v] : table) s += v;\n"
                              "  return s;\n"
                              "}\n");
  EXPECT_TRUE(has(diags, "no-unordered-iteration", 5));
}

TEST(LintRules, NoUnorderedIterationBeginWalkFires) {
  const auto diags = lint_one("src/wcds/a.cpp",
                              "#include <unordered_set>\n"
                              "std::unordered_set<long> seen;\n"
                              "long first() {\n"
                              "  return *seen.begin();\n"
                              "}\n");
  EXPECT_TRUE(has(diags, "no-unordered-iteration", 4));
}

TEST(LintRules, NoUnorderedIterationSeesCrossFileMemberDecls) {
  Linter linter;
  linter.add_file("src/udg/grid.h",
                  "#pragma once\n"
                  "#include <unordered_map>\n"
                  "struct Grid {\n"
                  "  std::unordered_map<long, int> cells;\n"
                  "};\n");
  linter.add_file("src/udg/grid.cpp",
                  "#include \"udg/grid.h\"\n"
                  "int f(const Grid& g) {\n"
                  "  int s = 0;\n"
                  "  for (const auto& kv : g.cells) s += kv.second;\n"
                  "  return s;\n"
                  "}\n");
  EXPECT_TRUE(has(linter.run(), "no-unordered-iteration", 4));
}

TEST(LintRules, NoUnorderedIterationTracksLocalAliases) {
  const auto diags = lint_one("src/mis/a.cpp",
                              "#include <unordered_map>\n"
                              "using Table = std::unordered_map<int, int>;\n"
                              "Table ranks;\n"
                              "int f() {\n"
                              "  int s = 0;\n"
                              "  for (const auto& kv : ranks) s += kv.second;\n"
                              "  return s;\n"
                              "}\n");
  EXPECT_TRUE(has(diags, "no-unordered-iteration", 6));
}

TEST(LintRules, NoUnorderedIterationScopeAndOrderedContainersClean) {
  // io/ is not a trace-affecting module: lookups may stay unordered there.
  EXPECT_TRUE(lint_one("src/io/a.cpp",
                       "#include <unordered_map>\n"
                       "std::unordered_map<int, int> table;\n"
                       "int f() {\n"
                       "  int s = 0;\n"
                       "  for (const auto& [k, v] : table) s += v;\n"
                       "  return s;\n"
                       "}\n")
                  .empty());
  // Iterating an ordered container in a trace-affecting module is fine.
  EXPECT_TRUE(lint_one("src/sim/a.cpp",
                       "#include <vector>\n"
                       "std::vector<int> queue_ids;\n"
                       "int f() {\n"
                       "  int s = 0;\n"
                       "  for (int id : queue_ids) s += id;\n"
                       "  return s;\n"
                       "}\n")
                  .empty());
  // Point lookups into an unordered map are fine; only iteration leaks.
  EXPECT_TRUE(lint_one("src/sim/a.cpp",
                       "#include <unordered_map>\n"
                       "std::unordered_map<int, int> table;\n"
                       "int f(int k) { return table.at(k); }\n")
                  .empty());
}

TEST(LintRules, NoUnorderedIterationSuppressedAndLexerImmune) {
  EXPECT_TRUE(lint_one("src/sim/a.cpp",
                       "#include <unordered_map>\n"
                       "std::unordered_map<int, int> table;\n"
                       "int f() {\n"
                       "  int s = 0;\n"
                       "  // wcds-lint: allow(no-unordered-iteration)\n"
                       "  for (const auto& [k, v] : table) s += v;\n"
                       "  return s;\n"
                       "}\n")
                  .empty());
  // Comments and strings never produce iteration events.
  EXPECT_TRUE(lint_one("src/sim/a.cpp",
                       "// for (const auto& kv : table)\n"
                       "auto s = \"std::unordered_map<int, int> table;\";\n")
                  .empty());
}

// ---------------------------------------------------------------------------
// no-pointer-order

TEST(LintRules, NoPointerOrderKeyedContainersFire) {
  const auto diags = lint_one("src/mis/a.cpp",
                              "#include <set>\n"
                              "struct Node;\n"
                              "std::set<Node*> frontier;\n");
  EXPECT_TRUE(has(diags, "no-pointer-order", 3));
}

TEST(LintRules, NoPointerOrderHashAndLessFire) {
  const auto diags = lint_one("src/wcds/a.h",
                              "#pragma once\n"
                              "struct Node;\n"
                              "using Order = std::less<Node*>;\n"
                              "using Hash = std::hash<const Node*>;\n");
  EXPECT_TRUE(has(diags, "no-pointer-order", 3));
  EXPECT_TRUE(has(diags, "no-pointer-order", 4));
}

TEST(LintRules, NoPointerOrderRelationalCompareFires) {
  const auto diags = lint_one("src/maintenance/a.cpp",
                              "struct Node;\n"
                              "bool before(Node* a, Node* b) {\n"
                              "  return a < b;\n"
                              "}\n");
  EXPECT_TRUE(has(diags, "no-pointer-order", 3));
}

TEST(LintRules, NoPointerOrderCleanCases) {
  // Value comparisons and arithmetic never match.
  EXPECT_TRUE(lint_one("src/sim/a.cpp",
                       "int area(int width, int height) {\n"
                       "  return width * height;\n"
                       "}\n"
                       "bool less(int a, int b) { return a < b; }\n")
                  .empty());
  // Pointer *keys by stable id* are fine: only pointer-keyed ordering fires.
  EXPECT_TRUE(lint_one("src/sim/a.cpp",
                       "#include <set>\n"
                       "std::set<long> ids;\n")
                  .empty());
  // io/ is outside the trace-affecting scope.
  EXPECT_TRUE(lint_one("src/io/a.cpp",
                       "struct Node;\n"
                       "std::set<Node*> frontier;\n")
                  .empty());
}

TEST(LintRules, NoPointerOrderSuppressedAndLexerImmune) {
  EXPECT_TRUE(
      lint_one("src/mis/a.cpp",
               "struct Node;\n"
               "std::set<Node*> f;  // wcds-lint: allow(no-pointer-order)\n")
          .empty());
  EXPECT_TRUE(lint_one("src/mis/a.cpp",
                       "// std::set<Node*> frontier;\n"
                       "auto s = \"std::less<Node*>\";\n")
                  .empty());
}

// ---------------------------------------------------------------------------
// no-ambient-entropy

TEST(LintRules, NoAmbientEntropyRandomDeviceFires) {
  const auto diags = lint_one("src/geom/seed.cpp",
                              "#include <random>\n"
                              "unsigned s() {\n"
                              "  std::random_device rd;\n"
                              "  return rd();\n"
                              "}\n");
  EXPECT_TRUE(has(diags, "no-ambient-entropy", 3));
}

TEST(LintRules, NoAmbientEntropyRandAndClockFire) {
  const auto diags = lint_one("src/sim/a.cpp",
                              "#include <chrono>\n"
                              "int r() { return rand(); }\n"
                              "auto t() { return std::chrono::steady_clock::now(); }\n"
                              "long w() { return time(nullptr); }\n");
  EXPECT_TRUE(has(diags, "no-ambient-entropy", 2));
  EXPECT_TRUE(has(diags, "no-ambient-entropy", 3));
  EXPECT_TRUE(has(diags, "no-ambient-entropy", 4));
}

TEST(LintRules, NoAmbientEntropyBoundaryAndMembersClean) {
  // The declared clock boundary may read wall clocks.
  EXPECT_TRUE(lint_one("src/obs/recorder.cpp",
                       "auto t = std::chrono::steady_clock::now();\n")
                  .empty());
  // Member functions named time()/clock() are not the libc calls.
  EXPECT_TRUE(lint_one("src/sim/a.cpp",
                       "double f(const Event& e) { return e.time(); }\n"
                       "double g(const Sim* s) { return s->clock(); }\n")
                  .empty());
  // Outside the configured scope the rule is silent.
  EXPECT_TRUE(lint_one("bench/a.cpp", "int r() { return rand(); }\n").empty());
}

TEST(LintRules, NoAmbientEntropySuppressedAndLexerImmune) {
  EXPECT_TRUE(lint_one("src/sim/a.cpp",
                       "// wcds-lint: allow(no-ambient-entropy) — seed scan\n"
                       "unsigned s = std::random_device{}();\n")
                  .empty());
  EXPECT_TRUE(lint_one("src/sim/a.cpp",
                       "// std::random_device in prose\n"
                       "auto s = \"rand() and time()\";\n")
                  .empty());
}

// ---------------------------------------------------------------------------
// layer-dag

Config layered_config() {
  Config config;
  config.module_prefixes = {{"src/low/", "low"}, {"src/high/", "high"}};
  config.modules = {{"low", {}}, {"high", {"low"}}};
  return config;
}

TEST(LintRules, LayerDagUndeclaredEdgeFires) {
  Linter linter(layered_config());
  linter.add_file("src/low/a.h",
                  "#pragma once\n"
                  "#include \"high/b.h\"\n");
  linter.add_file("src/high/b.h", "#pragma once\n");
  const auto diags = linter.run();
  EXPECT_TRUE(has(diags, "layer-dag", 2));
  ASSERT_FALSE(diags.empty());
  EXPECT_NE(diags[0].message.find("'low'"), std::string::npos);
  EXPECT_NE(diags[0].message.find("'high'"), std::string::npos);
}

TEST(LintRules, LayerDagDeclaredEdgeAndIntraModuleClean) {
  Linter linter(layered_config());
  linter.add_file("src/high/b.h",
                  "#pragma once\n"
                  "#include \"low/a.h\"\n"
                  "#include \"high/util.h\"\n");
  linter.add_file("src/low/a.h", "#pragma once\n");
  linter.add_file("src/high/util.h", "#pragma once\n");
  EXPECT_TRUE(linter.run().empty());
}

TEST(LintRules, LayerDagIncludeCycleFires) {
  Linter linter(layered_config());
  linter.add_file("src/low/a.h",
                  "#pragma once\n"
                  "#include \"low/b.h\"\n");
  linter.add_file("src/low/b.h",
                  "#pragma once\n"
                  "#include \"low/a.h\"\n");
  const auto diags = linter.run();
  ASSERT_FALSE(diags.empty());
  EXPECT_EQ(diags[0].rule, "layer-dag");
  EXPECT_NE(diags[0].message.find("include cycle"), std::string::npos);
}

TEST(LintRules, LayerDagDeclaredCycleIsAConfigError) {
  Config config;
  config.module_prefixes = {{"src/low/", "low"}, {"src/high/", "high"}};
  config.modules = {{"low", {"high"}}, {"high", {"low"}}};
  Linter linter(std::move(config));
  linter.add_file("src/low/a.h", "#pragma once\n");
  const auto diags = linter.run();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "layer-dag");
  EXPECT_NE(diags[0].message.find("cycle"), std::string::npos);
}

TEST(LintRules, LayerDagSuppressedAndDisabledWithoutModules) {
  Linter linter(layered_config());
  linter.add_file("src/low/a.h",
                  "#pragma once\n"
                  "#include \"high/b.h\"  // wcds-lint: allow(layer-dag)\n");
  linter.add_file("src/high/b.h", "#pragma once\n");
  EXPECT_TRUE(linter.run().empty());
  // Config{} declares no modules: the rule is disabled entirely.
  Linter bare{Config{}};
  bare.add_file("src/low/a.h",
                "#pragma once\n"
                "#include \"high/b.h\"\n");
  bare.add_file("src/high/b.h", "#pragma once\n");
  EXPECT_TRUE(bare.run().empty());
}

TEST(LintRules, DefaultConfigDagIsAcyclicAtHead) {
  // The shipped layering must itself be a valid DAG: an empty file set
  // still runs the declared-graph acyclicity check.
  Linter linter(default_config());
  linter.add_file("src/sim/a.cpp", "int x;\n");
  EXPECT_TRUE(linter.run().empty());
}

// ---------------------------------------------------------------------------
// facade-only

TEST(LintRules, FacadeOnlyDirectCallFires) {
  const auto diags = lint_one("bench/bench_x.cpp",
                              "void table() {\n"
                              "  const auto out = core::algorithm2(g);\n"
                              "  const auto run =\n"
                              "      protocols::run_algorithm1(g, delays);\n"
                              "}\n");
  EXPECT_TRUE(has(diags, "facade-only", 2));
  EXPECT_TRUE(has(diags, "facade-only", 4));
}

TEST(LintRules, FacadeOnlyBmBodyExempt) {
  // Inside a BM_ fixture the raw entrypoint is the thing being measured;
  // after its closing brace the exemption ends.
  const auto diags = lint_one("bench/bench_x.cpp",
                              "void BM_Build(benchmark::State& state) {\n"
                              "  for (auto _ : state) {\n"
                              "    benchmark::DoNotOptimize(core::algorithm2(g));\n"
                              "  }\n"
                              "}\n"
                              "void table() { core::algorithm2(g); }\n");
  EXPECT_FALSE(has(diags, "facade-only", 3));
  EXPECT_TRUE(has(diags, "facade-only", 6));
}

TEST(LintRules, FacadeOnlyExemptModulesAndNonCallsClean) {
  // The implementing modules may call the entrypoints directly.
  EXPECT_TRUE(lint_one("src/facade/build.cpp",
                       "auto r = core::algorithm2(g);\n", default_config())
                  .empty());
  EXPECT_TRUE(lint_one("src/protocols/driver.cpp",
                       "auto r = protocols::run_algorithm2(g, d);\n",
                       default_config())
                  .empty());
  // Mentions that are not calls: longer identifiers and non-call contexts.
  EXPECT_TRUE(lint_one("bench/bench_x.cpp",
                       "core::algorithm2_options opts;\n"
                       "int my_core::algorithm2x = 0;\n")
                  .empty());
}

TEST(LintRules, FacadeOnlySuppressedAndLexerImmune) {
  EXPECT_TRUE(lint_one("bench/bench_x.cpp",
                       "void t() {\n"
                       "  // timing the raw entrypoint on purpose\n"
                       "  // wcds-lint: allow(facade-only)\n"
                       "  auto r = core::algorithm2(g);\n"
                       "}\n")
                  .empty());
  // Comment and string mentions never fire.
  EXPECT_TRUE(lint_one("bench/bench_x.cpp",
                       "// call core::algorithm2(g) via the facade instead\n"
                       "const char* kDoc = \"protocols::run_algorithm1(g)\";\n")
                  .empty());
}

// ---------------------------------------------------------------------------
// Engine plumbing

TEST(LintEngine, DiagnosticsSortedAndFormatted) {
  Linter linter;
  linter.add_file("src/b.h", "#include \"../x.h\"\n");
  linter.add_file("src/a.h", "#include \"../x.h\"\n");
  const auto diags = linter.run();
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].file, "src/a.h");
  EXPECT_EQ(diags[1].file, "src/b.h");
  EXPECT_EQ(format_diagnostic(diags[0]),
            "src/a.h:1: error: [include-hygiene] parent-relative include "
            "\"../x.h\"; use a src-root-relative path");
}

TEST(LintEngine, EnabledRulesFilter) {
  Config config;
  config.enabled_rules = {"include-hygiene"};
  const auto diags =
      lint_one("src/a.h", "#include \"../x.h\"\nint x;\n", config);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "include-hygiene");
}

TEST(LintEngine, RuleListIsStable) {
  const std::vector<std::string> expected = {
      "no-bare-assert",     "paper-constant",  "message-type-registry",
      "metric-doc-sync",    "include-hygiene", "no-unordered-iteration",
      "no-pointer-order",   "no-ambient-entropy", "layer-dag",
      "facade-only"};
  ASSERT_EQ(rules().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(rules()[i].name, expected[i]);
    EXPECT_FALSE(rules()[i].summary.empty());
  }
}

TEST(LintEngine, GithubFormat) {
  const Diagnostic diag{"src/a.h", 3, "include-hygiene",
                        "<bits/...> is a libstdc++ internal"};
  EXPECT_EQ(format_diagnostic_github(diag),
            "::error file=src/a.h,line=3::[include-hygiene] <bits/...> is a "
            "libstdc++ internal");
}

// ---------------------------------------------------------------------------
// Semantic index

TEST(LintIndex, BuildsIncludeGraphAndResolvesAgainstScanSet) {
  const FileIndex file = analyze_file("src/sim/a.cpp",
                                      "#include \"sim/a.h\"\n"
                                      "#include <vector>\n"
                                      "#include \"graph/graph.h\"\n",
                                      Config{});
  ASSERT_EQ(file.includes.size(), 2u);  // system includes are not edges
  EXPECT_EQ(file.includes[0].line, 1);
  EXPECT_EQ(file.includes[0].written, "sim/a.h");
  EXPECT_EQ(file.includes[1].line, 3);
  EXPECT_EQ(file.includes[1].written, "graph/graph.h");
  // Resolution happens against the registered scan set at run() time.
  Linter linter;
  linter.add_file("src/sim/a.cpp", "#include \"sim/a.h\"\n");
  linter.add_file("src/sim/a.h", "#pragma once\n");
  (void)linter.run();
  ASSERT_EQ(linter.index().files.size(), 2u);
  const FileIndex& cpp = linter.index().files[0];
  ASSERT_EQ(cpp.includes.size(), 1u);
  EXPECT_EQ(cpp.includes[0].resolved, "src/sim/a.h");
}

TEST(LintIndex, ModuleAssignmentPrefixesAndOverrides) {
  const Config config = default_config();
  EXPECT_EQ(module_for("src/sim/runtime.cpp", config), "sim");
  EXPECT_EQ(module_for("src/maintenance/crash_schedule.cpp", config),
            "maintenance");
  // Exact overrides mirror the CMake split.
  EXPECT_EQ(module_for("src/check/check.h", config), "check");
  EXPECT_EQ(module_for("src/check/audit.h", config), "audit");
  EXPECT_EQ(module_for("src/wcds/wcds_result.h", config), "wcds_types");
  EXPECT_EQ(module_for("src/wcds/algorithm1.cpp", config), "wcds");
  EXPECT_EQ(module_for("tests/lint_test.cpp", config), "");
}

TEST(LintIndex, RecordsDeclsUsesAndAllows) {
  const FileIndex file = analyze_file(
      "src/sim/a.cpp",
      "#include <unordered_map>\n"
      "std::unordered_map<int, int> table;  // wcds-lint: allow(all)\n"
      "struct Node;\n"
      "void f(Node* n, Node* m) {\n"
      "  if (n < m) return;\n"
      "}\n",
      Config{});
  ASSERT_EQ(file.decls.size(), 3u);
  EXPECT_EQ(file.decls[0].kind, "unordered");
  EXPECT_EQ(file.decls[0].name, "table");
  EXPECT_EQ(file.decls[1].kind, "pointer");
  EXPECT_EQ(file.decls[1].name, "n");
  EXPECT_EQ(file.decls[2].name, "m");
  ASSERT_EQ(file.compares.size(), 1u);
  EXPECT_EQ(file.compares[0].lhs, "n");
  EXPECT_EQ(file.compares[0].rhs, "m");
  ASSERT_EQ(file.allows.size(), 1u);
  EXPECT_EQ(file.allows[0].line, 2);
}

}  // namespace
}  // namespace wcds::lint
