// Experiment T2 (Theorems 8 + 10): the weakly induced subgraph is a sparse
// spanner — Theta(n) edges regardless of UDG density, within the
// 9*#gray + 47*|S| accounting bound.
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
                "T2a: spanner edges vs n (deg = 16; spanner must be Theta(n))");
  bench::Table by_n({"n", "UDG edges", "alg1 E'", "alg2 E'", "alg2 E'/n",
                     "Thm10 bound", "bound holds"});
  for (const std::uint32_t n : {250u, 500u, 1000u, 2000u, 4000u}) {
    const auto inst = bench::connected_instance(n, 16.0, 1);
    const auto a1 =
        bench::build_with(inst.g, core::BuildAlgorithm::kAlgorithm1Central)
            .result;
    const auto out2 =
        bench::build_with(inst.g, core::BuildAlgorithm::kAlgorithm2Central);
    const auto sp1 = core::extract_spanner(inst.g, a1);
    const auto sp2 = core::extract_spanner(inst.g, out2.result);
    const auto stats = spanner::sparseness(inst.g, sp2, out2.result);
    by_n.add_row({std::to_string(n), bench::fmt_count(inst.g.edge_count()),
                  bench::fmt_count(sp1.edge_count()),
                  bench::fmt_count(sp2.edge_count()),
                  bench::fmt(stats.edges_per_node, 2),
                  bench::fmt_count(stats.theorem10_bound),
                  bench::verdict(stats.spanner_edges <=
                                 stats.theorem10_bound)});
  }
  by_n.print(std::cout);

  bench::banner(std::cout,
                "T2b: spanner edges vs density (n = 1000; E' must flatten)");
  bench::Table by_deg({"target deg", "UDG edges", "alg2 E'", "E'/n",
                       "UDG E/spanner E"});
  for (const double deg : {6.0, 12.0, 24.0, 48.0}) {
    const auto inst = bench::connected_instance(1000, deg, 2);
    const auto out2 =
        bench::build_with(inst.g, core::BuildAlgorithm::kAlgorithm2Central);
    const auto sp2 = core::extract_spanner(inst.g, out2.result);
    by_deg.add_row(
        {bench::fmt(deg, 0), bench::fmt_count(inst.g.edge_count()),
         bench::fmt_count(sp2.edge_count()),
         bench::fmt(static_cast<double>(sp2.edge_count()) / 1000.0, 2),
         bench::fmt(static_cast<double>(inst.g.edge_count()) /
                        static_cast<double>(sp2.edge_count()),
                    2)});
  }
  by_deg.print(std::cout);
  std::cout << "\nExpected shape: E'/n stays a small constant as n grows "
               "(linear spanner),\nand the UDG/spanner edge ratio grows with "
               "density while E' itself flattens.\n";
}

void BM_ExtractSpanner(benchmark::State& state) {
  const auto inst = bench::connected_instance(
      static_cast<std::uint32_t>(state.range(0)), 16.0, 1);
  const auto out = core::algorithm2(inst.g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::extract_spanner(inst.g, out.result));
  }
}
BENCHMARK(BM_ExtractSpanner)->Arg(1000)->Arg(4000);

}  // namespace

WCDS_BENCH_MAIN(print_tables)
