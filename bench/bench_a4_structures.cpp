// Ablation A4: position-less vs position-based sparse structures.
//
// The paper's spanners need no coordinates; the classic alternatives —
// Gabriel graph, RNG, and GPSR-style greedy geographic forwarding — do.
// This experiment puts them side by side: edge budget, hop dilation, and
// routing deliverability.
#include "bench_common.h"

#include <iostream>

#include "bench_support/table.h"
#include "geom/rng.h"
#include "routing/clusterhead_routing.h"
#include "routing/geographic.h"
#include "spanner/analysis.h"
#include "spanner/geometric_structures.h"
#include "wcds/algorithm1.h"
#include "wcds/algorithm2.h"
#include "wcds/verify.h"

namespace {

using namespace wcds;

void print_tables() {
  bench::banner(std::cout,
                "A4a: edge budget and hop dilation (n = 500, seed 1)");
  bench::Table table({"structure", "needs positions", "deg 8 edges",
                      "deg 24 edges", "max topo ratio (deg 8)"});
  struct Row {
    const char* name;
    const char* positions;
    std::size_t edges8 = 0, edges24 = 0;
    double ratio8 = 0.0;
  };
  std::vector<Row> rows{{"UDG", "-", 0, 0, 1.0},
                        {"alg1 spanner", "no", 0, 0, 0.0},
                        {"alg2 spanner", "no", 0, 0, 0.0},
                        {"Gabriel", "yes", 0, 0, 0.0},
                        {"RNG", "yes", 0, 0, 0.0}};
  for (const double deg : {8.0, 24.0}) {
    const auto inst = bench::connected_instance(500, deg, 1);
    const auto a1 =
        bench::build_with(inst.g, core::BuildAlgorithm::kAlgorithm1Central)
            .result;
    const auto out2 =
        bench::build_with(inst.g, core::BuildAlgorithm::kAlgorithm2Central);
    const graph::Graph structures[] = {
        inst.g, core::extract_spanner(inst.g, a1),
        core::extract_spanner(inst.g, out2.result),
        spanner::gabriel_graph(inst.g, inst.points),
        spanner::relative_neighborhood_graph(inst.g, inst.points)};
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (deg == 8.0) {
        rows[i].edges8 = structures[i].edge_count();
        rows[i].ratio8 =
            spanner::topological_dilation(inst.g, structures[i], 40).max_ratio;
      } else {
        rows[i].edges24 = structures[i].edge_count();
      }
    }
  }
  for (const Row& r : rows) {
    table.add_row({r.name, r.positions, bench::fmt_count(r.edges8),
                   bench::fmt_count(r.edges24),
                   r.ratio8 > 0 ? bench::fmt_ratio(r.ratio8) : "1.000"});
  }
  table.print(std::cout);

  bench::banner(std::cout,
                "A4b: routing deliverability, 1000 random pairs (n = 500)");
  bench::Table routing_table({"scheme", "substrate", "deg 8 delivered",
                              "deg 20 delivered"});
  struct Scheme {
    const char* name;
    const char* substrate;
    double rate8 = 0.0, rate20 = 0.0;
  };
  std::vector<Scheme> schemes{{"clusterhead (this paper)", "alg2 spanner"},
                              {"greedy geographic", "UDG"},
                              {"greedy geographic", "Gabriel"},
                              {"greedy geographic", "RNG"}};
  for (const double deg : {8.0, 20.0}) {
    const auto inst = bench::connected_instance(500, deg, 2);
    const core::BuildReport report =
        bench::build_with(inst.g, core::BuildAlgorithm::kAlgorithm2Central);
    const routing::ClusterheadRouter router(inst.g, report.algorithm2_view());
    const graph::Graph gg = spanner::gabriel_graph(inst.g, inst.points);
    const graph::Graph rng_g =
        spanner::relative_neighborhood_graph(inst.g, inst.points);
    geom::Xoshiro256ss rng(77);
    std::size_t attempted = 0;
    std::size_t delivered[4] = {0, 0, 0, 0};
    for (int i = 0; i < 1000; ++i) {
      const auto src = static_cast<NodeId>(rng.next_below(500));
      const auto dst = static_cast<NodeId>(rng.next_below(500));
      if (src == dst) continue;
      ++attempted;
      if (router.route(src, dst).delivered) ++delivered[0];
      if (routing::greedy_geographic_route(inst.g, inst.points, src, dst)
              .delivered) {
        ++delivered[1];
      }
      if (routing::greedy_geographic_route(gg, inst.points, src, dst)
              .delivered) {
        ++delivered[2];
      }
      if (routing::greedy_geographic_route(rng_g, inst.points, src, dst)
              .delivered) {
        ++delivered[3];
      }
    }
    for (std::size_t s = 0; s < schemes.size(); ++s) {
      const double rate = 100.0 * static_cast<double>(delivered[s]) /
                          static_cast<double>(attempted);
      if (deg == 8.0) {
        schemes[s].rate8 = rate;
      } else {
        schemes[s].rate20 = rate;
      }
    }
  }
  for (const Scheme& s : schemes) {
    routing_table.add_row({s.name, s.substrate,
                           bench::fmt(s.rate8, 1) + "%",
                           bench::fmt(s.rate20, 1) + "%"});
  }
  routing_table.print(std::cout);
  std::cout << "\nExpected shape: the WCDS spanners and GG/RNG all have "
               "Theta(n) edges while\nthe UDG grows with density; greedy "
               "geographic forwarding needs coordinates\nand still drops "
               "packets in voids (worse on the sparser GG/RNG substrates),\n"
               "while the position-less clusterhead scheme delivers 100%.\n";
}

void BM_GabrielGraph(benchmark::State& state) {
  const auto inst = bench::connected_instance(
      static_cast<std::uint32_t>(state.range(0)), 15.0, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(spanner::gabriel_graph(inst.g, inst.points));
  }
}
BENCHMARK(BM_GabrielGraph)->Arg(1000)->Arg(4000);

void BM_GreedyGeoRoute(benchmark::State& state) {
  const auto inst = bench::connected_instance(1000, 15.0, 1);
  geom::Xoshiro256ss rng(3);
  for (auto _ : state) {
    const auto src = static_cast<NodeId>(rng.next_below(1000));
    const auto dst = static_cast<NodeId>(rng.next_below(1000));
    benchmark::DoNotOptimize(
        routing::greedy_geographic_route(inst.g, inst.points, src, dst));
  }
}
BENCHMARK(BM_GreedyGeoRoute);

}  // namespace

WCDS_BENCH_MAIN(print_tables)
