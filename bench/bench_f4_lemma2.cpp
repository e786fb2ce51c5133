// Experiment F4 (paper Figure 4 / Lemma 2): packing bounds on MIS nodes near
// an MIS node — at most 23 at exactly two hops, at most 47 within three hops
// (constants re-derived from the paper's annulus argument; see DESIGN.md).
#include "bench_common.h"

#include <iostream>

#include "bench_support/table.h"
#include "mis/mis.h"
#include "mis/properties.h"

namespace {

using namespace wcds;

void print_tables() {
  bench::banner(std::cout,
                "F4 / Lemma 2: MIS nodes at 2 hops (bound 23) and within 3 "
                "hops (bound 47)");

  bench::Table table({"workload", "n", "target deg", "max @2hops",
                      "max <=3hops", "bounds hold"});
  for (const auto kind :
       {geom::WorkloadKind::kUniform, geom::WorkloadKind::kClustered,
        geom::WorkloadKind::kPerturbedGrid}) {
    for (const double deg : {6.0, 14.0, 30.0}) {
      std::size_t worst_two = 0;
      std::size_t worst_three = 0;
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const std::uint32_t n = 800;
        const double side = geom::side_for_expected_degree(n, deg);
        const auto inst = bench::connected_instance_of(kind, n, side, seed);
        const auto mis = mis::greedy_mis_by_id(inst.g);
        const auto stats = mis::audit_mis_balls(inst.g, mis.members);
        worst_two = std::max(worst_two, stats.max_at_two_hops);
        worst_three = std::max(worst_three, stats.max_within_three_hops);
      }
      table.add_row({geom::to_string(kind), "800", bench::fmt(deg, 0),
                     bench::fmt_count(worst_two),
                     bench::fmt_count(worst_three),
                     worst_two <= 23 && worst_three <= 47 ? "yes"
                                                          : "VIOLATED"});
    }
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: observed maxima sit far below the packing "
               "ceilings (23 / 47);\nrandom deployments reach roughly 5-10 "
               "at two hops and 10-20 within three.\n";
}

void BM_Lemma2Audit(benchmark::State& state) {
  const auto inst = bench::connected_instance(
      static_cast<std::uint32_t>(state.range(0)), 12.0, 1);
  const auto mis = mis::greedy_mis_by_id(inst.g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mis::audit_mis_balls(inst.g, mis.members));
  }
}
BENCHMARK(BM_Lemma2Audit)->Arg(1000)->Arg(2000);

}  // namespace

WCDS_BENCH_MAIN(print_tables)
