// Experiment F3 (paper Figure 3 / Lemma 1): any node not in an MIS of a UDG
// has at most 5 neighbors in the MIS.
//
// Measures the maximum observed MIS-neighbor count over densities, sizes and
// workload families; the proven ceiling is 5 and must never be exceeded.
#include "bench_common.h"

#include <iostream>

#include "bench_support/table.h"
#include "mis/mis.h"
#include "mis/properties.h"

namespace {

using namespace wcds;

void print_tables() {
  bench::banner(std::cout,
                "F3 / Lemma 1: max #MIS neighbors of a non-MIS node "
                "(proven bound: 5)");

  bench::Table table({"workload", "n", "target deg", "max over 5 seeds",
                      "mean of max", "bound holds"});
  const std::uint32_t kSeeds = 5;
  for (const auto kind :
       {geom::WorkloadKind::kUniform, geom::WorkloadKind::kClustered,
        geom::WorkloadKind::kPerturbedGrid}) {
    for (const std::uint32_t n : {400u, 1200u}) {
      for (const double deg : {6.0, 14.0, 30.0}) {
        std::size_t overall_max = 0;
        std::vector<double> maxima;
        for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
          const double side = geom::side_for_expected_degree(n, deg);
          const auto inst = bench::connected_instance_of(kind, n, side, seed);
          const auto mis = mis::greedy_mis_by_id(inst.g);
          const auto worst = mis::max_mis_neighbors(inst.g, mis.mask);
          overall_max = std::max(overall_max, worst);
          maxima.push_back(static_cast<double>(worst));
        }
        const auto summary = bench::summarize(maxima);
        table.add_row({geom::to_string(kind), std::to_string(n),
                       bench::fmt(deg, 0), bench::fmt_count(overall_max),
                       bench::fmt(summary.mean, 2),
                       bench::verdict(overall_max <= 5)});
      }
    }
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: the observed maximum saturates at 4-5 for "
               "dense deployments\nand never exceeds the proven ceiling of "
               "5 (Lemma 1's disk-packing argument).\n";
}

void BM_Lemma1Audit(benchmark::State& state) {
  const auto inst = bench::connected_instance(
      static_cast<std::uint32_t>(state.range(0)), 14.0, 1);
  const auto mis = mis::greedy_mis_by_id(inst.g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mis::max_mis_neighbors(inst.g, mis.mask));
  }
}
BENCHMARK(BM_Lemma1Audit)->Arg(1000)->Arg(4000);

}  // namespace

WCDS_BENCH_MAIN(print_tables)
