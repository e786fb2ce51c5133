// Experiment T3 (Theorem 11): topological dilation delta' <= 3*delta + 2 and
// geometric dilation l' <= 6*l + 5 of the Algorithm II spanner, with
// Algorithm I's (unguaranteed) spanner for comparison.
#include "bench_common.h"

#include <iostream>

#include "bench_support/table.h"
#include "spanner/analysis.h"
#include "wcds/algorithm1.h"
#include "wcds/algorithm2.h"
#include "wcds/verify.h"

namespace {

using namespace wcds;

void print_tables() {
  bench::banner(std::cout,
                "T3a: topological dilation (exact, all non-adjacent pairs)");
  bench::Table topo({"n", "deg", "algorithm", "max ratio", "mean ratio",
                     "max slack vs 3d+2", "bound holds"});
  for (const std::uint32_t n : {300u, 600u}) {
    for (const double deg : {8.0, 16.0}) {
      const auto inst = bench::connected_instance(n, deg, 1);
      const auto a1 =
          bench::build_with(inst.g, core::BuildAlgorithm::kAlgorithm1Central)
              .result;
      const auto out2 =
          bench::build_with(inst.g, core::BuildAlgorithm::kAlgorithm2Central);
      const auto sp1 = core::extract_spanner(inst.g, a1);
      const auto sp2 = core::extract_spanner(inst.g, out2.result);
      const auto d1 = spanner::topological_dilation(inst.g, sp1);
      const auto d2 = spanner::topological_dilation(inst.g, sp2);
      topo.add_row({std::to_string(n), bench::fmt(deg, 0), "alg2",
                    bench::fmt_ratio(d2.max_ratio),
                    bench::fmt_ratio(d2.mean_ratio),
                    std::to_string(d2.max_slack),
                    bench::verdict(d2.max_slack <= 0, "yes (Thm 11)")});
      topo.add_row({std::to_string(n), bench::fmt(deg, 0), "alg1",
                    bench::fmt_ratio(d1.max_ratio),
                    bench::fmt_ratio(d1.mean_ratio),
                    std::to_string(d1.max_slack), "(no guarantee)"});
    }
  }
  topo.print(std::cout);

  bench::banner(std::cout, "T3b: geometric dilation (l' vs 6*l + 5)");
  bench::Table geo({"n", "deg", "max ratio", "mean ratio", "max slack",
                    "bound holds"});
  for (const std::uint32_t n : {300u, 600u}) {
    for (const double deg : {8.0, 16.0}) {
      const auto inst = bench::connected_instance(n, deg, 1);
      const auto out2 =
          bench::build_with(inst.g, core::BuildAlgorithm::kAlgorithm2Central);
      const auto sp2 = core::extract_spanner(inst.g, out2.result);
      const auto d = spanner::geometric_dilation(inst.g, sp2, inst.points, 60);
      geo.add_row({std::to_string(n), bench::fmt(deg, 0),
                   bench::fmt_ratio(d.max_ratio),
                   bench::fmt_ratio(d.mean_ratio), bench::fmt(d.max_slack, 2),
                   bench::verdict(d.max_slack <= 1e-9, "yes (Thm 11)")});
    }
  }
  geo.print(std::cout);

  bench::banner(std::cout,
                "T3c: stretch distribution of the alg2 spanner (n = 600)");
  bench::Table pct({"deg", "p50", "p90", "p99", "max"});
  for (const double deg : {8.0, 16.0}) {
    const auto inst = bench::connected_instance(600, deg, 1);
    const auto out2 =
        bench::build_with(inst.g, core::BuildAlgorithm::kAlgorithm2Central);
    const auto sp2 = core::extract_spanner(inst.g, out2.result);
    const auto dist = spanner::topological_stretch_distribution(inst.g, sp2);
    pct.add_row({bench::fmt(deg, 0), bench::fmt_ratio(dist.percentile(0.5)),
                 bench::fmt_ratio(dist.percentile(0.9)),
                 bench::fmt_ratio(dist.percentile(0.99)),
                 bench::fmt_ratio(dist.max_ratio)});
  }
  pct.print(std::cout);
  std::cout << "\nExpected shape: Algorithm II's worst measured stretch "
               "stays well below the\nproven envelopes (typical max ratio "
               "1.5-2.5 topological); Algorithm I's\nspanner is connected "
               "but can exceed Algorithm II's stretch since it lacks\nthe "
               "3-hop bridges.\n";
}

void BM_TopologicalDilationExact(benchmark::State& state) {
  const auto inst = bench::connected_instance(
      static_cast<std::uint32_t>(state.range(0)), 12.0, 1);
  const auto out = core::algorithm2(inst.g);
  const auto sp = core::extract_spanner(inst.g, out.result);
  for (auto _ : state) {
    benchmark::DoNotOptimize(spanner::topological_dilation(inst.g, sp));
  }
}
BENCHMARK(BM_TopologicalDilationExact)->Arg(300)->Arg(600);

}  // namespace

WCDS_BENCH_MAIN(print_tables)
