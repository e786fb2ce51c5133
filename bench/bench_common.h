// Shared plumbing for the experiment binaries (see DESIGN.md section 3).
//
// Every bench binary prints its reproduction table(s) first — those rows are
// what EXPERIMENTS.md records — then runs any registered google-benchmark
// timings.  Passing --json_out=<path> additionally exports the tables plus
// the run's metrics/phase-timing snapshot as a wcds-bench/v1 JSON document
// (docs/OBSERVABILITY.md); without the flag no recorder is installed and the
// instrumentation stays on its zero-cost null path.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_support/report.h"
#include "bench_support/stats.h"
#include "bench_support/table.h"
#include "check/check.h"
#include "facade/build.h"
#include "geom/point.h"
#include "geom/workload.h"
#include "graph/bfs.h"
#include "graph/graph.h"
#include "obs/recorder.h"
#include "parallel/thread_pool.h"
#include "udg/udg.h"

namespace wcds::bench {

struct Instance {
  std::vector<geom::Point> points;
  graph::Graph g;
};

// A connected uniform-square UDG with the requested expected degree; the
// area shrinks 1% per failed attempt so near-threshold densities terminate.
inline Instance connected_instance(std::uint32_t count, double expected_degree,
                                   std::uint64_t seed) {
  double side = geom::side_for_expected_degree(count, expected_degree);
  for (std::uint64_t attempt = 0; attempt < 256; ++attempt) {
    Instance inst;
    inst.points = geom::uniform_square(count, side, seed + attempt);
    inst.g = udg::build_udg(inst.points);
    if (graph::is_connected(inst.g)) return inst;
    side *= 0.99;
  }
  throw std::runtime_error("connected_instance: density too low");
}

inline Instance connected_instance_of(geom::WorkloadKind kind,
                                      std::uint32_t count, double side,
                                      std::uint64_t seed) {
  geom::WorkloadParams params;
  params.kind = kind;
  params.count = count;
  params.side = side;
  params.seed = seed;
  for (std::uint64_t attempt = 0; attempt < 256; ++attempt) {
    Instance inst;
    params.seed = seed + attempt;
    inst.points = geom::generate(params);
    inst.g = udg::build_udg(inst.points);
    if (graph::is_connected(inst.g)) return inst;
    params.side *= 0.99;
  }
  throw std::runtime_error("connected_instance_of: density too low");
}

// Run fn(trial) for every trial in [0, n) across the thread pool and return
// the results in trial order — the multi-seed reproduction tables aggregate
// from the ordered vector, so parallel and serial runs print identical
// numbers.  `threads` is the first-class knob (0 = WCDS_THREADS env /
// hardware default, 1 = inline serial); the pool is resolved through
// parallel::pool_for, so one pool is reused across every table of the run
// instead of re-deriving the environment per call.  Falls back to serial
// when an ambient recorder is installed (--json_out): MetricsRegistry is
// not thread-safe.
template <typename Fn>
[[nodiscard]] auto run_trials(std::size_t n, Fn&& fn, std::size_t threads = 0) {
  using Result = std::invoke_result_t<Fn&, std::size_t>;
  std::vector<Result> results(n);
  if (obs::global_recorder() != nullptr) {
    for (std::size_t trial = 0; trial < n; ++trial) {
      results[trial] = fn(trial);
    }
  } else {
    parallel::pool_for(threads).parallel_for(
        0, n, 1, [&](std::size_t trial) { results[trial] = fn(trial); });
  }
  return results;
}

// Run the unified construction facade in one mode with default options;
// the reproduction tables go through here so phase timings and build
// metrics land in the --json_out snapshot.
inline core::BuildReport build_with(const graph::Graph& g,
                                    core::BuildAlgorithm algorithm) {
  core::BuildOptions options;
  options.algorithm = algorithm;
  return core::build(g, options);
}

// Strip a leading --json_out=<path> argument (any position) from argv so
// google-benchmark never sees it; returns the path or "" when absent.
inline std::string consume_json_out_flag(int& argc, char** argv) {
  constexpr std::string_view kFlag = "--json_out=";
  std::string path;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (arg.rfind(kFlag, 0) == 0) {
      path = std::string(arg.substr(kFlag.size()));
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return path;
}

// Executable basename, used as the "bench" field of the JSON document.
inline std::string bench_name_from_argv0(const char* argv0) {
  std::string_view name(argv0 == nullptr ? "bench" : argv0);
  const std::size_t slash = name.find_last_of('/');
  if (slash != std::string_view::npos) name.remove_prefix(slash + 1);
  return std::string(name);
}

// Whether a table row found a proven bound violated.
inline bool& bound_violated() {
  static bool violated = false;
  return violated;
}

// The "bound holds" cell of a reproduction table: `yes` when the paper's
// bound holds on the row, else "VIOLATED", which also makes the binary exit
// non-zero once every table is printed.
inline const char* verdict(bool holds, const char* yes = "yes") {
  if (!holds) bound_violated() = true;
  return holds ? yes : "VIOLATED";
}

// Standard main body, shared by every bench binary via WCDS_BENCH_MAIN.
// Reproduction tables print first (recording into report() and, when
// --json_out is set, into an ambient recorder), then google-benchmark runs
// any registered timings with the recorder uninstalled.  A table row that
// violated a proven bound ends the run with exit code 1 before the timings.
inline int run_bench_main(int argc, char** argv, void (*print_tables_fn)()) {
  check::set_audits_enabled(false);
  const std::string json_out = consume_json_out_flag(argc, argv);
  obs::Recorder recorder;
  if (!json_out.empty()) obs::set_global_recorder(&recorder);
  print_tables_fn();
  if (!json_out.empty()) {
    obs::set_global_recorder(nullptr);
    try {
      write_report_json(json_out, bench_name_from_argv0(argv[0]),
                        recorder.snapshot());
      std::cout << "\nwrote " << json_out << "\n";
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return 1;
    }
  }
  if (bound_violated()) {
    std::cerr << "a proven bound is VIOLATED in the tables above\n";
    return 1;
  }
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}

// Usage:  WCDS_BENCH_MAIN(print_experiment_tables)
#define WCDS_BENCH_MAIN(print_tables_fn)                        \
  int main(int argc, char** argv) {                             \
    return ::wcds::bench::run_bench_main(argc, argv,            \
                                         &print_tables_fn);     \
  }

}  // namespace wcds::bench
