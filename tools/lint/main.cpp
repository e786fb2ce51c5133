// wcds_lint CLI.
//
//   wcds_lint [--root <dir>] [--profile=<repo|tests|bench>]
//             [--format=<plain|github>] [--list-rules] [paths...]
//
// Paths are repo-relative files or directories (default: src tools bench),
// scanned recursively for C++ sources.
//
// Exit status contract (CI keys off it — see .github/workflows/checks.yml):
//   0  clean
//   1  violations found
//   2  usage error (unknown flag, bad arguments)
//   3  I/O failure (unreadable root or input)
//
// --profile=tests runs only the include, determinism and layering rules on
// test code, with tests/ treated as trace-affecting: a flaky iteration order
// in a test that replays traces is a flaky test.  --profile=bench is the
// same idea for benchmark code, except no-ambient-entropy stays off
// entirely — timing reads are what benchmarks are for.
//
// --format=github prints each diagnostic as a GitHub Actions ::error
// annotation instead of the plain file:line form.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lint.h"

namespace fs = std::filesystem;

namespace {

constexpr int kExitClean = 0;
constexpr int kExitViolations = 1;
constexpr int kExitUsage = 2;
constexpr int kExitIoError = 3;

bool has_source_extension(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc" ||
         ext == ".cxx";
}

// Repo-relative, '/'-separated form of `path` under `root`.
std::string relative_key(const fs::path& path, const fs::path& root) {
  return fs::relative(path, root).generic_string();
}

bool read_file(const fs::path& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

int usage(std::ostream& out, int status) {
  out << "usage: wcds_lint [--root <dir>] [--profile=<repo|tests|bench>]"
         " [--format=<plain|github>] [--list-rules] [paths...]\n"
         "paths default to: src tools bench (relative to --root)\n"
         "exit: 0 clean, 1 violations, 2 usage error, 3 I/O failure\n";
  return status;
}

// The tests profile: style rules that assume production context are off,
// the determinism and include rules stay on, and tests/ joins the
// trace-affecting + entropy scopes.
void apply_tests_profile(wcds::lint::Config& config) {
  config.enabled_rules = {"include-hygiene", "no-unordered-iteration",
                          "no-pointer-order", "no-ambient-entropy",
                          "layer-dag"};
  config.trace_affecting_prefixes.push_back("tests/");
  config.entropy_scope_prefixes.push_back("tests/");
}

// The bench profile: like tests, but no-ambient-entropy stays off — reading
// the clock is the whole point of a benchmark — while bench/ still joins the
// trace-affecting scope (a bench that iterates an unordered container feeds
// nondeterministic work into the timed region).
void apply_bench_profile(wcds::lint::Config& config) {
  config.enabled_rules = {"include-hygiene", "no-unordered-iteration",
                          "no-pointer-order", "layer-dag"};
  config.trace_affecting_prefixes.push_back("bench/");
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  wcds::lint::Config config = wcds::lint::default_config();
  std::vector<std::string> inputs;
  std::string profile = "repo";
  std::string format = "plain";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      return usage(std::cout, kExitClean);
    } else if (arg == "--list-rules") {
      for (const wcds::lint::RuleInfo& rule : wcds::lint::rules()) {
        std::cout << rule.name << ": " << rule.summary << "\n";
      }
      return kExitClean;
    } else if (arg == "--root") {
      if (i + 1 >= argc) return usage(std::cerr, kExitUsage);
      root = argv[++i];
    } else if (arg.rfind("--profile=", 0) == 0) {
      profile = arg.substr(10);
      if (profile != "repo" && profile != "tests" && profile != "bench") {
        std::cerr << "wcds_lint: unknown profile " << profile << "\n";
        return usage(std::cerr, kExitUsage);
      }
    } else if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "plain" && format != "github") {
        std::cerr << "wcds_lint: unknown format " << format << "\n";
        return usage(std::cerr, kExitUsage);
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "wcds_lint: unknown option " << arg << "\n";
      return usage(std::cerr, kExitUsage);
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) inputs = {"src", "tools", "bench"};
  if (profile == "tests") apply_tests_profile(config);
  if (profile == "bench") apply_bench_profile(config);

  std::error_code ec;
  root = fs::canonical(root, ec);
  if (ec) {
    std::cerr << "wcds_lint: cannot resolve root: " << ec.message() << "\n";
    return kExitIoError;
  }

  // The metric registry document; missing is fine (rule disabled) so the
  // tool still works on partial checkouts.
  read_file(root / config.observability_doc_name, config.observability_doc);

  std::vector<std::string> files;
  for (const std::string& input : inputs) {
    const fs::path path = root / input;
    if (fs::is_directory(path, ec)) {
      for (const fs::directory_entry& entry :
           fs::recursive_directory_iterator(path, ec)) {
        if (entry.is_regular_file() && has_source_extension(entry.path())) {
          files.push_back(relative_key(entry.path(), root));
        }
      }
    } else if (fs::is_regular_file(path, ec)) {
      files.push_back(relative_key(path, root));
    } else {
      std::cerr << "wcds_lint: no such file or directory: " << input << "\n";
      return kExitIoError;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  wcds::lint::Linter linter(config);

  for (const std::string& file : files) {
    std::string content;
    if (!read_file(root / file, content)) {
      std::cerr << "wcds_lint: cannot read " << file << "\n";
      return kExitIoError;
    }
    linter.add_file(file, content);
  }

  const std::vector<wcds::lint::Diagnostic> diagnostics = linter.run();
  for (const wcds::lint::Diagnostic& diagnostic : diagnostics) {
    std::cout << (format == "github"
                      ? wcds::lint::format_diagnostic_github(diagnostic)
                      : wcds::lint::format_diagnostic(diagnostic))
              << "\n";
  }

  // Always-printed summary so CI logs show the scan's actual extent.
  const std::size_t rules_run = config.enabled_rules.empty()
                                    ? wcds::lint::rules().size()
                                    : config.enabled_rules.size();
  std::cout << "wcds_lint: " << diagnostics.size() << " diagnostic"
            << (diagnostics.size() == 1 ? "" : "s") << " in " << files.size()
            << " files (" << rules_run << " rules)\n";
  return diagnostics.empty() ? kExitClean : kExitViolations;
}
