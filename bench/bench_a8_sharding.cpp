// Experiment A8: component-sharded simulation speedup.
//
// A fleet deployment — many disjoint service areas — is one UDG whose
// connected components never exchange messages.  The sharded runner
// (sim/sharded.h) executes the per-component sub-runs on the thread pool
// and merges them deterministically, so the only thing allowed to change
// versus the serial composition is wall time.  A8 times both distributed
// algorithms over a 16-component deployment at n >= 10^4: the serial
// kGlobal baseline against kComponentSharded at 1/2/4/8 threads, median of
// 3.  The `identical` column cross-checks the merged RunStats and the
// constructed WCDS against the serial run — it must read yes at every
// thread count (tests/sharding_test.cpp proves the stronger byte-level
// claim trace-by-trace).
//
// Expected shape: speedup approaches min(threads, components) on hosts with
// that many cores, bounded by the largest component (shards are whole
// components, so the critical path is the slowest shard).  On a single-core
// host every column reads ~1.0x; the determinism columns are the point.
#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_support/table.h"
#include "graph/bfs.h"
#include "protocols/algorithm1_protocol.h"
#include "protocols/algorithm2_protocol.h"

namespace {

using namespace wcds;

constexpr std::size_t kClusters = 16;
constexpr std::uint32_t kPerCluster = 640;  // 16 x 640 = 10240 nodes

// One deployment of kClusters connected UDGs, spatially separated by far
// more than the unit radius so build_udg yields exactly kClusters
// components.  Node ids interleave round-robin across clusters: component
// membership is non-contiguous in id space, the worst case for the
// active-subset plumbing.
const bench::Instance& fleet_instance() {
  static const bench::Instance inst = [] {
    std::vector<std::vector<geom::Point>> parts(kClusters);
    for (std::size_t i = 0; i < kClusters; ++i) {
      auto part = bench::connected_instance(kPerCluster, 10.0, 1 + 101 * i);
      for (auto& p : part.points) p.x += 1000.0 * static_cast<double>(i);
      parts[i] = std::move(part.points);
    }
    bench::Instance out;
    for (std::uint32_t j = 0; j < kPerCluster; ++j) {
      for (std::size_t i = 0; i < kClusters; ++i) {
        out.points.push_back(parts[i][j]);
      }
    }
    out.g = udg::build_udg(out.points);
    return out;
  }();
  return inst;
}

struct RunOutcome {
  sim::RunStats stats;
  std::vector<NodeId> dominators;
  double ms = 0.0;
};

RunOutcome run_once(const graph::Graph& g, bool alg1,
                    sim::ExecutionPolicy execution, std::size_t threads) {
  RunOutcome out;
  const auto start = std::chrono::steady_clock::now();
  // Raw entrypoints on purpose: these feed the gated a8/* timing gauges and
  // the facade's list extraction would pollute the sharding comparison.
  if (alg1) {
    // wcds-lint: allow(facade-only)
    auto run = protocols::run_algorithm1(g, sim::DelayModel::unit(), nullptr,
                                         nullptr, execution, threads);
    out.stats = std::move(run.stats);
    out.dominators = std::move(run.wcds.dominators);
  } else {
    // wcds-lint: allow(facade-only)
    auto run = protocols::run_algorithm2(g, sim::DelayModel::unit(), nullptr,
                                         nullptr, execution, threads);
    out.stats = std::move(run.stats);
    out.dominators = std::move(run.wcds.dominators);
  }
  const auto stop = std::chrono::steady_clock::now();
  out.ms = std::chrono::duration<double, std::milli>(stop - start).count();
  return out;
}

RunOutcome median_of_3(const graph::Graph& g, bool alg1,
                       sim::ExecutionPolicy execution, std::size_t threads) {
  RunOutcome best;
  double samples[3];
  for (double& sample : samples) {
    RunOutcome out = run_once(g, alg1, execution, threads);
    sample = out.ms;
    best = std::move(out);
  }
  std::sort(samples, samples + 3);
  best.ms = samples[1];
  return best;
}

void print_tables() {
  obs::Recorder* const ambient = obs::global_recorder();
  obs::set_global_recorder(nullptr);

  const auto& inst = fleet_instance();
  const auto components = graph::connected_components(inst.g).count;

  bench::banner(std::cout,
                "A8: component-sharded run wall time, serial composition vs "
                "thread pool (median of 3)");
  std::cout << "n = " << inst.g.node_count() << ", components = " << components
            << "\n\n";
  bench::Table table({"alg", "global ms", "t1 ms", "t2 ms", "t4 ms", "t8 ms",
                      "speedup(t8)", "identical"});
  struct Gauge {
    std::string name;
    double value = 0.0;
  };
  std::vector<Gauge> gauges;
  for (const bool alg1 : {true, false}) {
    const std::string key = alg1 ? "alg1" : "alg2";
    const RunOutcome global =
        median_of_3(inst.g, alg1, sim::ExecutionPolicy::kGlobal, 1);
    bool identical = true;
    std::vector<double> sharded_ms;
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      const RunOutcome sharded = median_of_3(
          inst.g, alg1, sim::ExecutionPolicy::kComponentSharded, threads);
      identical = identical && sharded.stats == global.stats &&
                  sharded.dominators == global.dominators;
      sharded_ms.push_back(sharded.ms);
      gauges.push_back({"a8/sharded_ms/t" + std::to_string(threads) + "/" + key,
                        sharded.ms});
    }
    const double speedup = global.ms / sharded_ms.back();
    table.add_row({key, bench::fmt(global.ms, 2), bench::fmt(sharded_ms[0], 2),
                   bench::fmt(sharded_ms[1], 2), bench::fmt(sharded_ms[2], 2),
                   bench::fmt(sharded_ms[3], 2), bench::fmt(speedup, 2) + "x",
                   identical ? "yes" : "NO"});
    gauges.push_back({"a8/global_ms/" + key, global.ms});
    gauges.push_back({"a8/speedup/t8/" + key, speedup});
    gauges.push_back({"a8/identical/" + key, identical ? 1.0 : 0.0});
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: speedup(t8) -> min(8, " << components
            << ") with enough cores, bounded by the largest component; "
               "~1.0x on one core.\nThe identical column must read yes at "
               "every thread count.\n";

  obs::set_global_recorder(ambient);
  if (ambient != nullptr) {
    for (const Gauge& gauge : gauges) {
      ambient->metrics().set(gauge.name, gauge.value);
    }
  }
}

void BM_ShardedRun(benchmark::State& state, bool alg1,
                   sim::ExecutionPolicy execution) {
  const auto& inst = fleet_instance();
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_once(inst.g, alg1, execution, threads));
  }
}

BENCHMARK_CAPTURE(BM_ShardedRun, alg1_global, true,
                  sim::ExecutionPolicy::kGlobal)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ShardedRun, alg1_sharded, true,
                  sim::ExecutionPolicy::kComponentSharded)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ShardedRun, alg2_global, false,
                  sim::ExecutionPolicy::kGlobal)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ShardedRun, alg2_sharded, false,
                  sim::ExecutionPolicy::kComponentSharded)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

WCDS_BENCH_MAIN(print_tables)
