// Experiment A5: simulator hot-path performance.
//
// A5a times Runtime::run end-to-end for both distributed algorithms under
// both delay regimes on the flat event path: pooled broadcast payloads and
// the ring of time buckets (sim/event_queue.h, docs/PERFORMANCE.md).
//
// A5b times the spanner dilation analysis serially (one lane) and on the
// WCDS_THREADS pool; outputs are byte-identical by construction
// (src/spanner/analysis.cpp), so only wall time may differ.
#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <iostream>
#include <map>

#include "bench_support/table.h"
#include "protocols/algorithm1_protocol.h"
#include "protocols/algorithm2_protocol.h"
#include "spanner/analysis.h"
#include "wcds/verify.h"

namespace {

using namespace wcds;

// One UDG per size, shared by the table and the BM_ timings below.
const bench::Instance& instance_for(std::uint32_t n) {
  static std::map<std::uint32_t, bench::Instance> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache.emplace(n, bench::connected_instance(n, 10.0, 1)).first;
  }
  return it->second;
}

sim::DelayModel delay_for(bool async) {
  return async ? sim::DelayModel::uniform(1, 5, 7) : sim::DelayModel::unit();
}

double run_once_ms(const graph::Graph& g, bool alg1, bool async) {
  const auto delays = delay_for(async);
  const auto start = std::chrono::steady_clock::now();
  // Raw entrypoints on purpose: this helper feeds the gated a5/flat_ms
  // gauges, and the facade's list extraction would pollute the runtime
  // timing.
  if (alg1) {
    benchmark::DoNotOptimize(
        // wcds-lint: allow(facade-only)
        protocols::run_algorithm1(g, delays, nullptr));
  } else {
    benchmark::DoNotOptimize(
        // wcds-lint: allow(facade-only)
        protocols::run_algorithm2(g, delays, nullptr));
  }
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

double median_of_3_ms(const graph::Graph& g, bool alg1, bool async) {
  double t[3];
  for (double& sample : t) sample = run_once_ms(g, alg1, async);
  std::sort(t, t + 3);
  return t[1];
}

void print_tables() {
  // Timing sections run with the ambient recorder uninstalled: a recorder
  // adds a trace callback per event, which would pollute the runtime
  // timing.  The printed rows still land in report() for --json_out.
  obs::Recorder* const ambient = obs::global_recorder();
  obs::set_global_recorder(nullptr);

  bench::banner(std::cout,
                "A5a: Runtime::run wall time (median of 3)");
  bench::Table table({"n", "alg", "delays", "flat ms"});
  struct TimedConfig {
    std::string name;
    double ms = 0.0;
  };
  std::vector<TimedConfig> gauges;
  for (const std::uint32_t n : {512u, 2048u, 8192u}) {
    const auto& inst = instance_for(n);
    for (const bool alg1 : {true, false}) {
      for (const bool async : {false, true}) {
        const double flat_ms = median_of_3_ms(inst.g, alg1, async);
        table.add_row({std::to_string(n), alg1 ? "alg1" : "alg2",
                       async ? "async U(1,5)" : "sync",
                       bench::fmt(flat_ms, 2)});
        const std::string key = std::string(alg1 ? "alg1" : "alg2") +
                                (async ? "_async_n" : "_sync_n") +
                                std::to_string(n);
        gauges.push_back({"a5/flat_ms/" + key, flat_ms});
      }
    }
  }
  table.print(std::cout);

  bench::banner(std::cout,
                "A5b: dilation analysis, serial vs WCDS_THREADS pool");
  bench::Table par({"n", "threads", "serial ms", "parallel ms", "speedup",
                    "identical"});
  for (const std::uint32_t n : {2048u, 8192u}) {
    const auto& inst = instance_for(n);
    const auto wcds =
        bench::build_with(inst.g, core::BuildAlgorithm::kAlgorithm2Central)
            .result;
    const auto sp = core::extract_spanner(inst.g, wcds);
    spanner::TopologicalDilationStats serial_stats;
    double serial_ms = 0.0;
    {
      parallel::ThreadPool one(1);
      parallel::ScopedPool scoped(one);
      const auto start = std::chrono::steady_clock::now();
      serial_stats = spanner::topological_dilation(inst.g, sp);
      const auto stop = std::chrono::steady_clock::now();
      serial_ms =
          std::chrono::duration<double, std::milli>(stop - start).count();
    }
    const auto start = std::chrono::steady_clock::now();
    const auto parallel_stats = spanner::topological_dilation(inst.g, sp);
    const auto stop = std::chrono::steady_clock::now();
    const double parallel_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    const bool identical = serial_stats.max_ratio == parallel_stats.max_ratio &&
                           serial_stats.mean_ratio == parallel_stats.mean_ratio &&
                           serial_stats.max_slack == parallel_stats.max_slack &&
                           serial_stats.pairs == parallel_stats.pairs;
    par.add_row({std::to_string(n),
                 std::to_string(parallel::default_thread_count()),
                 bench::fmt(serial_ms, 2), bench::fmt(parallel_ms, 2),
                 bench::fmt(serial_ms / parallel_ms, 2) + "x",
                 identical ? "yes" : "NO"});
  }
  par.print(std::cout);
  std::cout << "\nExpected shape: flat ms grows ~linearly in n (every event "
               "is an O(1) append\nor pop on the bucket ring).  A5b speedup "
               "tracks WCDS_THREADS on multi-core\nhosts and is ~1.0x "
               "single-core; the 'identical' column must read yes\neither "
               "way.\n";

  obs::set_global_recorder(ambient);
  // With the recorder back in effect, fold the wall times into the metrics
  // snapshot so --json_out carries machine-readable numbers alongside the
  // table rows.
  if (ambient != nullptr) {
    for (const TimedConfig& gauge : gauges) {
      ambient->metrics().set(gauge.name, gauge.ms);
    }
  }
}

void BM_RuntimeRun(benchmark::State& state, bool alg1, bool async) {
  const auto& inst = instance_for(static_cast<std::uint32_t>(state.range(0)));
  const auto delays = delay_for(async);
  for (auto _ : state) {
    if (alg1) {
      benchmark::DoNotOptimize(
          protocols::run_algorithm1(inst.g, delays, nullptr));
    } else {
      benchmark::DoNotOptimize(
          protocols::run_algorithm2(inst.g, delays, nullptr));
    }
  }
  state.SetComplexityN(state.range(0));
}

#define WCDS_BM_RUNTIME(name, alg1, async)                              \
  BENCHMARK_CAPTURE(BM_RuntimeRun, name, alg1, async)                   \
      ->Arg(512)                                                        \
      ->Arg(2048)                                                       \
      ->Arg(8192)                                                       \
      ->Unit(benchmark::kMillisecond)                                   \
      ->Complexity()

WCDS_BM_RUNTIME(alg1_sync_flat, true, false);
WCDS_BM_RUNTIME(alg1_async_flat, true, true);
WCDS_BM_RUNTIME(alg2_sync_flat, false, false);
WCDS_BM_RUNTIME(alg2_async_flat, false, true);

#undef WCDS_BM_RUNTIME

void BM_DilationSerial(benchmark::State& state) {
  const auto& inst = instance_for(static_cast<std::uint32_t>(state.range(0)));
  const auto wcds =
      bench::build_with(inst.g, core::BuildAlgorithm::kAlgorithm2Central)
          .result;
  const auto sp = core::extract_spanner(inst.g, wcds);
  parallel::ThreadPool one(1);
  parallel::ScopedPool scoped(one);
  for (auto _ : state) {
    benchmark::DoNotOptimize(spanner::topological_dilation(inst.g, sp));
  }
}
BENCHMARK(BM_DilationSerial)->Arg(2048)->Unit(benchmark::kMillisecond);

void BM_DilationParallel(benchmark::State& state) {
  const auto& inst = instance_for(static_cast<std::uint32_t>(state.range(0)));
  const auto wcds =
      bench::build_with(inst.g, core::BuildAlgorithm::kAlgorithm2Central)
          .result;
  const auto sp = core::extract_spanner(inst.g, wcds);
  for (auto _ : state) {
    benchmark::DoNotOptimize(spanner::topological_dilation(inst.g, sp));
  }
}
BENCHMARK(BM_DilationParallel)->Arg(2048)->Unit(benchmark::kMillisecond);

}  // namespace

WCDS_BENCH_MAIN(print_tables)
