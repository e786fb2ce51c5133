// Experiment A9: fault-tolerant (k,m) backbones — size vs repair traffic.
//
// A9a prices the resilience: plain Algorithm II backbone vs the (1,2) and
// (2,2) augmentations (wcds/resilient.h) at n in {200, 800} centralized and
// n = 10240 over the A8 fleet deployment (16 components, protocol mode,
// component-sharded).  Columns report backbone size, the m-fold lower
// bound ceil(m*|MIS|/5) (baselines::udg_mwcds_lower_bound), and build wall
// time — the a9/build_ms/* gauges are gated by tools/compare_bench.py.
//
// A9b is the survival-vs-repair contrast: under the same crash schedule
// (the A6c stepping pattern) the plain maintained backbone
// (maintenance::DynamicWcds + run_crash_schedule) runs a localized repair
// per crash and pays fault/repair_ms, while the static (2,2) backbone
// absorbs every crash with zero repair traffic
// (maintenance::run_survival_schedule).  The a9/survived/* gauges must
// read 1.0 and a9/resilient_repair_events/* must read 0 — both are
// asserted by the perf-gate workflow.
#include "bench_common.h"

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/exact.h"
#include "bench_support/table.h"
#include "maintenance/crash_schedule.h"
#include "maintenance/dynamic_wcds.h"

namespace {

using namespace wcds;

constexpr std::uint64_t kSeed = 7;
constexpr std::size_t kFleetClusters = 16;
constexpr std::uint32_t kFleetPerCluster = 640;  // 16 x 640 = 10240 nodes

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

void set_gauge(const std::string& name, double value) {
  if (obs::Recorder* rec = obs::global_recorder()) {
    rec->metrics().set(name, value);
  }
}

// The A8 fleet deployment: kFleetClusters far-apart connected UDGs with
// node ids interleaved round-robin (component membership non-contiguous in
// id space).
const bench::Instance& fleet_instance() {
  static const bench::Instance inst = [] {
    std::vector<std::vector<geom::Point>> parts(kFleetClusters);
    for (std::size_t i = 0; i < kFleetClusters; ++i) {
      auto part = bench::connected_instance(kFleetPerCluster, 10.0,
                                            kSeed + 101 * i);
      for (auto& p : part.points) p.x += 1000.0 * static_cast<double>(i);
      parts[i] = std::move(part.points);
    }
    bench::Instance out;
    for (std::uint32_t j = 0; j < kFleetPerCluster; ++j) {
      for (std::size_t i = 0; i < kFleetClusters; ++i) {
        out.points.push_back(parts[i][j]);
      }
    }
    out.g = udg::build_udg(out.points);
    return out;
  }();
  return inst;
}

struct Arm {
  const char* key;
  core::ResilienceSpec spec;
};

constexpr Arm kArms[] = {
    {"plain", {1, 1}},
    {"k1m2", {1, 2}},
    {"k2m2", {2, 2}},
};

struct BuildOutcome {
  core::BuildReport report;
  double ms = 0.0;
};

BuildOutcome build_arm(const graph::Graph& g, const Arm& arm, bool protocol) {
  core::BuildOptions options;
  options.algorithm = protocol ? core::BuildAlgorithm::kAlgorithm2Protocol
                               : core::BuildAlgorithm::kAlgorithm2Central;
  options.resilience = arm.spec;
  BuildOutcome out;
  double samples[3];
  for (double& sample : samples) {
    const auto start = Clock::now();
    out.report = core::build(g, options);
    sample = ms_since(start);
  }
  std::sort(samples, samples + 3);
  out.ms = samples[1];  // median of 3
  return out;
}

// The A6c victim stepping pattern: `count` spread-out distinct nodes.
std::vector<NodeId> crash_victims(NodeId n, std::size_t count) {
  std::vector<NodeId> victims;
  for (std::size_t i = 1; victims.size() < count && i <= 4 * count; ++i) {
    const auto v = static_cast<NodeId>((i * n) / 11 % n);
    if (std::find(victims.begin(), victims.end(), v) == victims.end()) {
      victims.push_back(v);
    }
  }
  return victims;
}

void print_a9a() {
  bench::banner(std::cout,
                "A9a: backbone size and build time, plain vs (1,2) vs (2,2) "
                "(Algorithm II, median-of-3 builds)");
  bench::Table table({"n", "arm", "|U|", "size vs plain", "m-fold LB",
                      "build ms"});
  for (const std::uint32_t n : {200u, 800u}) {
    const auto inst = bench::connected_instance(n, 10.0, kSeed);
    double plain_size = 0.0;
    for (const Arm& arm : kArms) {
      const auto out = build_arm(inst.g, arm, /*protocol=*/false);
      const auto size = static_cast<double>(out.report.result.size());
      if (arm.spec.m == 1) plain_size = size;
      const auto bound = baselines::udg_mwcds_lower_bound(
          out.report.result.mis_dominators.size(), arm.spec.m);
      const std::string key =
          std::string(arm.key) + "/n" + std::to_string(n);
      table.add_row({std::to_string(n), arm.key, bench::fmt(size, 0),
                     bench::fmt(size / plain_size, 2) + "x",
                     std::to_string(bound), bench::fmt(out.ms, 2)});
      set_gauge("a9/backbone/" + key, size);
      set_gauge("a9/build_ms/" + key, out.ms);
    }
  }
  // The 10240-node fleet runs the distributed protocol with the
  // component-sharded runner; the augmentation is per-component by
  // construction, so the merged backbone meets the spec in every cluster.
  const auto& fleet = fleet_instance();
  const auto n = static_cast<NodeId>(fleet.g.node_count());
  double plain_size = 0.0;
  for (const Arm& arm : kArms) {
    const auto out = build_arm(fleet.g, arm, /*protocol=*/true);
    const auto size = static_cast<double>(out.report.result.size());
    if (arm.spec.m == 1) plain_size = size;
    const std::string key =
        std::string(arm.key) + "/n" + std::to_string(n) + "_sharded";
    table.add_row({std::to_string(n) + " (sharded)", arm.key,
                   bench::fmt(size, 0),
                   bench::fmt(size / plain_size, 2) + "x", "-",
                   bench::fmt(out.ms, 2)});
    set_gauge("a9/backbone/" + key, size);
    set_gauge("a9/build_ms/" + key, out.ms);
  }
  table.print(std::cout);
  std::cout << "\nSize vs plain is the price of m-fold domination plus "
               "2-connectivity ears; the m-fold LB column is the "
               "ceil(m*|MIS|/5) yardstick.\n";
}

void print_a9b() {
  bench::banner(std::cout,
                "A9b: survival vs repair under crash schedules (A6c victim "
                "pattern; plain = DynamicWcds repairs, (2,2) = static "
                "backbone absorbs)");
  bench::Table table({"n", "crashes", "plain repair events",
                      "plain repair ms", "(2,2) survived", "(2,2) repairs"});
  for (const std::uint32_t n : {200u, 800u}) {
    const auto inst = bench::connected_instance(n, 10.0, kSeed);
    for (const std::size_t crashes : {4u, 8u, 16u}) {
      const auto victims =
          crash_victims(static_cast<NodeId>(n), crashes);

      // Plain arm: every crash and recovery runs the localized repair.
      obs::Recorder plain_rec;
      maintenance::DynamicWcds dynamic(inst.points);
      dynamic.set_recorder(&plain_rec);
      const auto schedule =
          maintenance::run_crash_schedule(dynamic, victims, &plain_rec);
      const auto plain_snapshot = plain_rec.snapshot();
      const auto repair_it = plain_snapshot.histograms.find("fault/repair_ms");
      const double repair_events =
          repair_it != plain_snapshot.histograms.end()
              ? static_cast<double>(repair_it->second.count)
              : 0.0;

      // Resilient arm: the same victims against the static (2,2) backbone.
      core::BuildOptions options;
      options.resilience = core::ResilienceSpec{2, 2};
      const auto report = core::build(inst.g, options);
      obs::Recorder resilient_rec;
      const auto survival = maintenance::run_survival_schedule(
          inst.g, report.result, victims, &resilient_rec);
      const auto resilient_snapshot = resilient_rec.snapshot();
      const double resilient_repairs =
          resilient_snapshot.histograms.count("fault/repair_ms") != 0
              ? 1.0
              : 0.0;
      const double survived_fraction =
          survival.crashes == 0
              ? 1.0
              : static_cast<double>(survival.survived) /
                    static_cast<double>(survival.crashes);

      std::string key = "n";
      key += std::to_string(n);
      key += "_c";
      key += std::to_string(victims.size());
      table.add_row({std::to_string(n), std::to_string(victims.size()),
                     bench::fmt(repair_events, 0),
                     bench::fmt(schedule.total_repair_ms, 2),
                     std::to_string(survival.survived) + "/" +
                         std::to_string(survival.crashes),
                     bench::fmt(resilient_repairs, 0)});
      set_gauge("a9/plain_repair_events/" + key, repair_events);
      set_gauge("a9/plain_repair_ms/" + key, schedule.total_repair_ms);
      set_gauge("a9/survived/" + key, survived_fraction);
      set_gauge("a9/resilient_repair_events/" + key, resilient_repairs);
    }
  }
  // Fleet-scale survival: sampled victims over the sharded (2,2) build.
  const auto& fleet = fleet_instance();
  const auto n = static_cast<NodeId>(fleet.g.node_count());
  core::BuildOptions options;
  options.algorithm = core::BuildAlgorithm::kAlgorithm2Protocol;
  options.resilience = core::ResilienceSpec{2, 2};
  const auto report = core::build(fleet.g, options);
  const auto victims = crash_victims(n, 32);
  const auto survival =
      maintenance::run_survival_schedule(fleet.g, report.result, victims);
  table.add_row({std::to_string(n) + " (sharded)",
                 std::to_string(victims.size()), "-", "-",
                 std::to_string(survival.survived) + "/" +
                     std::to_string(survival.crashes),
                 "0"});
  std::string fleet_key = "a9/survived/n";
  fleet_key += std::to_string(n);
  fleet_key += "_sharded";
  set_gauge(fleet_key, survival.crashes == 0
                           ? 1.0
                           : static_cast<double>(survival.survived) /
                                 static_cast<double>(survival.crashes));
  table.print(std::cout);
  std::cout << "\nExpected shape: plain repair events = 2x crashes (crash + "
               "recover each repair), (2,2) survived = crashes/crashes with "
               "0 repairs at every crash rate.\n";
}

void print_tables() {
  print_a9a();
  std::cout << "\n";
  print_a9b();
}

void BM_ResilientBuild(benchmark::State& state, core::ResilienceSpec spec) {
  const auto inst =
      bench::connected_instance(static_cast<std::uint32_t>(state.range(0)),
                                10.0, kSeed);
  for (auto _ : state) {
    core::BuildOptions options;
    options.resilience = spec;
    benchmark::DoNotOptimize(core::build(inst.g, options));
  }
}

BENCHMARK_CAPTURE(BM_ResilientBuild, plain, core::ResilienceSpec{1, 1})
    ->Arg(200)
    ->Arg(800)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ResilientBuild, k1m2, core::ResilienceSpec{1, 2})
    ->Arg(200)
    ->Arg(800)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ResilientBuild, k2m2, core::ResilienceSpec{2, 2})
    ->Arg(200)
    ->Arg(800)
    ->Unit(benchmark::kMillisecond);

}  // namespace

WCDS_BENCH_MAIN(print_tables)
