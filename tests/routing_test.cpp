// Clusterhead routing over the Algorithm II spanner (paper, Section 4.2).
#include <gtest/gtest.h>

#include <stdexcept>

#include "graph/bfs.h"
#include "routing/clusterhead_routing.h"
#include "routing/router.h"
#include "test_util.h"
#include "wcds/algorithm2.h"

namespace wcds::routing {
namespace {

TEST(Routing, AdjacentPairsUseDirectEdge) {
  const auto g = graph::from_edges(3, {{0, 1}, {1, 2}});
  const auto out = core::algorithm2(g);
  const ClusterheadRouter router(g, out);
  const auto r = router.route(0, 1);
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.path, (std::vector<NodeId>{0, 1}));
}

TEST(Routing, SelfRouteIsTrivial) {
  const auto g = graph::from_edges(2, {{0, 1}});
  const auto out = core::algorithm2(g);
  const ClusterheadRouter router(g, out);
  const auto r = router.route(1, 1);
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.hops(), 0u);
}

TEST(Routing, PathGraphEndToEnd) {
  const auto g = graph::from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const auto out = core::algorithm2(g);
  const ClusterheadRouter router(g, out);
  const auto r = router.route(1, 4);
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.path.front(), 1u);
  EXPECT_EQ(r.path.back(), 4u);
  for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
    EXPECT_TRUE(g.has_edge(r.path[i], r.path[i + 1]));
  }
}

TEST(Routing, ClusterheadAssignment) {
  const auto g = graph::from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const auto out = core::algorithm2(g);  // MIS {0, 2, 4}
  const ClusterheadRouter router(g, out);
  EXPECT_EQ(router.clusterhead(0), 0u);
  EXPECT_EQ(router.clusterhead(1), 0u);  // lowest 1-hop dominator
  EXPECT_EQ(router.clusterhead(3), 2u);
  EXPECT_EQ(router.clusterhead_count(), 3u);
}

TEST(Routing, RejectsOutOfRangeEndpoints) {
  const auto inst = testing::connected_udg(60, 8.0, 1);
  const auto out = core::algorithm2(inst.g);
  const auto n = static_cast<NodeId>(inst.g.node_count());
  for (const Strategy strategy :
       {Strategy::kClusterhead, Strategy::kGeographic}) {
    const auto router = make_router(strategy, inst.g, out, inst.points);
    EXPECT_THROW((void)router->route(n, 0), std::out_of_range)
        << to_string(strategy);
    EXPECT_THROW((void)router->route(0, n), std::out_of_range)
        << to_string(strategy);
    EXPECT_THROW((void)router->route(kInvalidNode, kInvalidNode),
                 std::out_of_range)
        << to_string(strategy);
    EXPECT_NO_THROW((void)router->route(n - 1, 0)) << to_string(strategy);
  }
  const ClusterheadRouter router(inst.g, out);
  EXPECT_THROW((void)router.next_clusterhead(n, 0), std::out_of_range);
  EXPECT_THROW((void)router.next_clusterhead(0, n), std::out_of_range);
  EXPECT_THROW((void)router.overlay_distance(n, 0), std::out_of_range);
  EXPECT_THROW((void)router.overlay_distance(0, n), std::out_of_range);
}

class RoutingSweep
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(RoutingSweep, AllPairsDeliveredOverValidEdges) {
  const auto [degree, seed] = GetParam();
  const auto inst = testing::connected_udg(150, degree, seed);
  const auto out = core::algorithm2(inst.g);
  const ClusterheadRouter router(inst.g, out);
  std::vector<bool> dom_mask(inst.g.node_count(), false);
  for (NodeId d : out.result.dominators) dom_mask[d] = true;

  for (NodeId src = 0; src < inst.g.node_count(); src += 7) {
    const auto bfs = graph::bfs_distances(inst.g, src);
    for (NodeId dst = 0; dst < inst.g.node_count(); dst += 5) {
      const auto r = router.route(src, dst);
      ASSERT_TRUE(r.delivered) << src << "->" << dst;
      ASSERT_FALSE(r.path.empty());
      EXPECT_EQ(r.path.front(), src);
      EXPECT_EQ(r.path.back(), dst);
      for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
        const NodeId a = r.path[i];
        const NodeId b = r.path[i + 1];
        ASSERT_TRUE(inst.g.has_edge(a, b));
        // Every non-direct hop is a black (spanner) edge.
        if (r.path.size() > 2) {
          EXPECT_TRUE(dom_mask[a] || dom_mask[b]);
        }
      }
      // Theorem 11 on the route itself: dominators of consecutive nodes on
      // a shortest path are equal or overlay neighbors, so the head walk
      // spans at most delta overlay hops of <= 3 edges each, plus one edge
      // at each end: hops <= 3 delta + 2.
      if (src != dst && bfs[dst] != kUnreachable) {
        EXPECT_LE(r.hops(), 3 * static_cast<std::size_t>(bfs[dst]) + 2);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DegreeSeed, RoutingSweep,
    ::testing::Combine(::testing::Values(7.0, 12.0),
                       ::testing::Values(1u, 2u, 3u)));

TEST(Routing, SecondRingsAreTheHeadsTwoOverlayHopsAway) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto inst = testing::connected_udg(600, 12.0, seed);
    const auto out = core::algorithm2(inst.g);
    const ClusterheadRouter router(inst.g, out);
    const std::size_t h = router.clusterhead_count();
    std::size_t ring_entries = 0;
    for (std::uint32_t a = 0; a < h; ++a) {
      std::vector<std::uint32_t> want;
      const auto row = router.distance_row(a);
      for (std::uint32_t b = 0; b < h; ++b) {
        if (row[b] == 2) want.push_back(b);
      }
      ASSERT_EQ(testing::to_vector(router.second_ring(a)), want)
          << "seed " << seed << " head " << a;
      ring_entries += want.size();
    }
    EXPECT_GT(ring_entries, h);
  }
}

TEST(Routing, TableDiagnostics) {
  const auto inst = testing::connected_udg(120, 10.0, 2);
  const auto out = core::algorithm2(inst.g);
  const ClusterheadRouter router(inst.g, out);
  EXPECT_EQ(router.clusterhead_count(), out.result.mis_dominators.size());
  EXPECT_EQ(router.table_entries(),
            router.clusterhead_count() * router.clusterhead_count());
  EXPECT_GT(router.overlay_edge_count(), 0u);
}

}  // namespace
}  // namespace wcds::routing
