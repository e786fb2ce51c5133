// Experiment T5 (Section 4.2): routing over the spanner — delivery, stretch
// against shortest paths, and routing-state footprint, for both strategies
// behind the unified routing::Router interface (clusterhead tables vs
// stateless geographic greedy).
#include "bench_common.h"

#include <iostream>

#include "bench_support/table.h"
#include "geom/rng.h"
#include "routing/router.h"
#include "routing/clusterhead_routing.h"
#include "wcds/algorithm2.h"

namespace {

using namespace wcds;

void print_tables() {
  bench::banner(std::cout,
                "T5: routing strategies (1000 random pairs per row)");
  bench::Table table({"n", "deg", "strategy", "heads", "overlay E",
                      "delivered", "mean stretch", "worst stretch",
                      "distance entries"});
  for (const std::uint32_t n : {300u, 600u, 1200u}) {
    for (const double deg : {8.0, 16.0}) {
      const auto inst = bench::connected_instance(n, deg, 1);
      const auto report =
          bench::build_with(inst.g, core::BuildAlgorithm::kAlgorithm2Central);
      const core::Algorithm2View wcds = report.algorithm2_view();
      for (const auto strategy :
           {routing::Strategy::kClusterhead, routing::Strategy::kGeographic}) {
        const auto router =
            routing::make_router(strategy, inst.g, wcds, inst.points);
        geom::Xoshiro256ss rng(42);
        std::size_t delivered = 0;
        std::size_t attempted = 0;
        std::size_t hops = 0;
        std::size_t optimal = 0;
        double worst = 0.0;
        for (int i = 0; i < 1000; ++i) {
          const auto src = static_cast<NodeId>(rng.next_below(n));
          const auto dst = static_cast<NodeId>(rng.next_below(n));
          if (src == dst) continue;
          ++attempted;
          const auto route = router->route(src, dst);
          if (!route.delivered) continue;
          ++delivered;
          const auto opt = graph::hop_distance(inst.g, src, dst);
          hops += route.hops();
          optimal += opt;
          if (opt > 0) {
            worst = std::max(worst, static_cast<double>(route.hops()) /
                                        static_cast<double>(opt));
          }
        }
        // State columns are a clusterhead-table property (the entries are
        // overlay distances, which the next clusterhead is read off);
        // greedy geographic keeps no routing state at all.
        std::string heads = "-", overlay = "-", entries = "-";
        if (strategy == routing::Strategy::kClusterhead) {
          const auto& ch =
              static_cast<const routing::ClusterheadRouter&>(*router);
          heads = bench::fmt_count(ch.clusterhead_count());
          overlay = bench::fmt_count(ch.overlay_edge_count());
          entries = bench::fmt_count(ch.table_entries());
        }
        table.add_row(
            {std::to_string(n), bench::fmt(deg, 0),
             routing::to_string(strategy), heads, overlay,
             bench::fmt(100.0 * static_cast<double>(delivered) /
                            static_cast<double>(attempted),
                        1) + "%",
             bench::fmt_ratio(static_cast<double>(hops) /
                              static_cast<double>(optimal)),
             bench::fmt_ratio(worst), entries});
      }
    }
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: clusterhead routing delivers 100% with "
               "mean stretch\n~1.2-1.5 and worst stretch bounded by the "
               "Theorem 11 envelope plus the two\nclusterhead detour hops, "
               "holding state only at the |S| clusterheads (|S|^2\ndistance "
               "entries total); greedy geographic holds no state but strands some "
               "pairs in\nlocal minima at low degree.\n";
}

void BM_RouterConstruction(benchmark::State& state) {
  const auto inst = bench::connected_instance(
      static_cast<std::uint32_t>(state.range(0)), 12.0, 1);
  const auto out = core::algorithm2(inst.g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::ClusterheadRouter(inst.g, out));
  }
}
BENCHMARK(BM_RouterConstruction)->Arg(300)->Arg(1200)->Arg(8192);

void BM_RouteSinglePacket(benchmark::State& state) {
  const auto inst = bench::connected_instance(600, 12.0, 1);
  const auto out = core::algorithm2(inst.g);
  const routing::ClusterheadRouter router(inst.g, out);
  geom::Xoshiro256ss rng(7);
  for (auto _ : state) {
    const auto src = static_cast<NodeId>(rng.next_below(600));
    const auto dst = static_cast<NodeId>(rng.next_below(600));
    benchmark::DoNotOptimize(router.route(src, dst));
  }
}
BENCHMARK(BM_RouteSinglePacket);

}  // namespace

WCDS_BENCH_MAIN(print_tables)
