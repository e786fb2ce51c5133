// Routing over the backbone (paper, Section 4.2) behind the unified
// routing::Router interface.  The default clusterhead strategy sends unicast
// packets src -> clusterhead -> ... -> clusterhead -> dst over black
// (spanner) edges only, using the dominators' routing tables; the geographic
// strategy routes greedily by position with no routing state at all.
//
// Scenario: a field deployment where pairs of sensors exchange readings.  We
// route a batch of random pairs, verify delivery, and report the stretch
// against shortest-path routing (which would need global state at every
// node; the clusterhead scheme keeps routing state only at dominators).
//
//   $ ./clusterhead_routing [node_count] [expected_degree] [pairs] [seed]
//       [clusterhead|geographic]
#include <iostream>
#include <string>

#include "geom/rng.h"
#include "geom/workload.h"
#include "graph/bfs.h"
#include "routing/clusterhead_routing.h"
#include "routing/router.h"
#include "facade/build.h"
#include "udg/udg.h"

int main(int argc, char** argv) {
  using namespace wcds;
  const std::uint32_t n = argc > 1 ? static_cast<std::uint32_t>(std::stoul(argv[1])) : 600;
  const double degree = argc > 2 ? std::stod(argv[2]) : 14.0;
  const std::uint32_t pair_count =
      argc > 3 ? static_cast<std::uint32_t>(std::stoul(argv[3])) : 2000;
  std::uint64_t seed = argc > 4 ? std::stoull(argv[4]) : 3;
  const routing::Strategy strategy =
      argc > 5 && std::string(argv[5]) == "geographic"
          ? routing::Strategy::kGeographic
          : routing::Strategy::kClusterhead;

  const double side = geom::side_for_expected_degree(n, degree);
  std::vector<geom::Point> points;
  graph::Graph g;
  do {
    points = geom::uniform_square(n, side, seed++);
    g = udg::build_udg(points);
  } while (!graph::is_connected(g));

  core::BuildOptions build_options;
  build_options.algorithm = core::BuildAlgorithm::kAlgorithm2Central;
  const auto report = core::build(g, build_options);
  const auto router =
      routing::make_router(strategy, g, report.algorithm2_view(), points);

  std::cout << "network: " << n << " nodes; strategy: "
            << routing::to_string(router->strategy()) << "\n";
  if (strategy == routing::Strategy::kClusterhead) {
    const auto& ch = static_cast<const routing::ClusterheadRouter&>(*router);
    std::cout << "clusterheads: " << ch.clusterhead_count()
              << "; overlay edges: " << ch.overlay_edge_count()
              << "; distance-table entries: " << ch.table_entries()
              << " (held at dominators only)\n";
  }
  std::cout << "\n";

  geom::Xoshiro256ss rng(909);
  std::size_t delivered = 0;
  std::size_t total_hops = 0;
  std::size_t total_optimal = 0;
  double worst_stretch = 0.0;
  for (std::uint32_t i = 0; i < pair_count; ++i) {
    const NodeId src = static_cast<NodeId>(rng.next_below(n));
    const NodeId dst = static_cast<NodeId>(rng.next_below(n));
    if (src == dst) continue;
    const auto route = router->route(src, dst);
    if (!route.delivered) continue;
    ++delivered;
    const auto opt = graph::hop_distance(g, src, dst);
    total_hops += route.hops();
    total_optimal += opt;
    if (opt > 0) {
      worst_stretch = std::max(
          worst_stretch,
          static_cast<double>(route.hops()) / static_cast<double>(opt));
    }
  }

  std::cout << "routed " << delivered << " packets; mean route length "
            << static_cast<double>(total_hops) /
                   static_cast<double>(delivered)
            << " hops (shortest-path mean "
            << static_cast<double>(total_optimal) /
                   static_cast<double>(delivered)
            << ")\n";
  std::cout << "mean stretch "
            << static_cast<double>(total_hops) /
                   static_cast<double>(total_optimal)
            << ", worst stretch " << worst_stretch << "\n";
  return 0;
}
