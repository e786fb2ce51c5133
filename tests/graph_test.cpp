#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "bfs_reference.h"
#include "geom/workload.h"
#include "graph/bfs.h"
#include "graph/diameter.h"
#include "graph/dijkstra.h"
#include "graph/graph.h"
#include "graph/local_bfs.h"
#include "graph/spanning_tree.h"
#include "graph/subgraph.h"
#include "test_util.h"
#include "udg/udg.h"

namespace wcds::graph {
namespace {

Graph path_graph(std::size_t n) {
  GraphBuilder b(n);
  for (NodeId u = 0; u + 1 < n; ++u) b.add_edge(u, u + 1);
  return std::move(b).build();
}

Graph cycle_graph(std::size_t n) {
  GraphBuilder b(n);
  for (NodeId u = 0; u < n; ++u) b.add_edge(u, static_cast<NodeId>((u + 1) % n));
  return std::move(b).build();
}

Graph star_graph(std::size_t leaves) {
  GraphBuilder b(leaves + 1);
  for (NodeId u = 1; u <= leaves; ++u) b.add_edge(0, u);
  return std::move(b).build();
}

TEST(Graph, EmptyGraph) {
  GraphBuilder b(0);
  const Graph g = std::move(b).build();
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Graph, BuilderDeduplicates) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 0);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  const Graph g = std::move(b).build();
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(1), 2u);
}

TEST(Graph, BuilderRejectsSelfLoop) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(1, 1), std::invalid_argument);
}

TEST(Graph, BuilderRejectsOutOfRange) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(0, 2), std::out_of_range);
}

TEST(Graph, NeighborsSortedAndHasEdge) {
  const Graph g = from_edges(5, {{3, 1}, {3, 4}, {3, 0}, {1, 2}});
  const auto row = g.neighbors(3);
  EXPECT_TRUE(std::is_sorted(row.begin(), row.end()));
  EXPECT_TRUE(g.has_edge(3, 0));
  EXPECT_TRUE(g.has_edge(0, 3));
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_EQ(g.max_degree(), 3u);
}

TEST(Graph, EdgesListCanonical) {
  const Graph g = from_edges(4, {{2, 1}, {0, 3}});
  const auto edges = g.edges();
  ASSERT_EQ(edges.size(), 2u);
  for (const auto& [u, v] : edges) EXPECT_LT(u, v);
}

TEST(Graph, AverageDegree) {
  const Graph g = path_graph(4);  // degrees 1,2,2,1
  EXPECT_DOUBLE_EQ(g.average_degree(), 1.5);
}

TEST(Bfs, PathDistances) {
  const Graph g = path_graph(6);
  const auto dist = bfs_distances(g, 0);
  for (NodeId u = 0; u < 6; ++u) EXPECT_EQ(dist[u], u);
}

TEST(Bfs, DisconnectedUnreachable) {
  const Graph g = from_edges(4, {{0, 1}, {2, 3}});
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], kUnreachable);
  EXPECT_EQ(dist[3], kUnreachable);
}

TEST(Bfs, MultiSource) {
  const Graph g = path_graph(7);
  const NodeId sources[] = {6, 0, 6};
  LocalBfs bfs;
  const auto order = bfs.run(g, sources, kUnreachable);
  EXPECT_EQ(std::vector<NodeId>(order.begin(), order.end()),
            (std::vector<NodeId>{6, 0, 5, 1, 4, 2, 3}));
  EXPECT_EQ(bfs.distance(3), 3u);
  EXPECT_EQ(bfs.distance(5), 1u);
  EXPECT_EQ(bfs.distance(0), 0u);
  EXPECT_EQ(bfs.parent(3), 4u);  // discovered from 6's side, visited first
  EXPECT_EQ(bfs.parent(6), kInvalidNode);
}

TEST(Bfs, HopDistancePair) {
  const Graph g = cycle_graph(10);
  EXPECT_EQ(hop_distance(g, 0, 5), 5u);
  EXPECT_EQ(hop_distance(g, 0, 7), 3u);
  EXPECT_EQ(hop_distance(g, 2, 2), 0u);
}

TEST(Bfs, Components) {
  const Graph g = from_edges(6, {{0, 1}, {1, 2}, {4, 5}});
  const auto comps = connected_components(g);
  EXPECT_EQ(comps.count, 3u);  // {0,1,2}, {3}, {4,5}
  EXPECT_EQ(comps.label[0], comps.label[2]);
  EXPECT_NE(comps.label[0], comps.label[3]);
  EXPECT_EQ(comps.label[4], comps.label[5]);
  EXPECT_FALSE(is_connected(g));
  EXPECT_TRUE(is_connected(cycle_graph(5)));
}

TEST(Bfs, SingleNodeConnected) {
  GraphBuilder b(1);
  EXPECT_TRUE(is_connected(std::move(b).build()));
}

TEST(Bfs, Eccentricity) {
  const Graph g = path_graph(5);
  EXPECT_EQ(eccentricity(g, 0), 4u);
  EXPECT_EQ(eccentricity(g, 2), 2u);
}

// Checks one LocalBfs run against the oracle's queue BFS truncated at
// `radius`: the ball's members and distances, center first, distances
// non-decreasing.
template <class Bfs>
void expect_ball(Bfs& bfs, const Graph& g, NodeId center, HopCount radius) {
  const auto members = bfs.run(g, center, radius);
  const auto dist = testing::reference::bfs_distances(g, center);
  ASSERT_FALSE(members.empty());
  EXPECT_EQ(members.front(), center);
  std::size_t inside = 0;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const HopCount want = dist[u] <= radius ? dist[u] : kUnreachable;
    EXPECT_EQ(bfs.distance(u), want) << "node " << u;
    if (want != kUnreachable) ++inside;
  }
  EXPECT_EQ(members.size(), inside);
  for (std::size_t i = 1; i < members.size(); ++i) {
    EXPECT_LE(bfs.distance(members[i - 1]), bfs.distance(members[i]));
  }
}

TEST(LocalBfs, RadiusZeroIsTheCenter) {
  const Graph g = path_graph(5);
  LocalBfs bfs;
  const auto members = bfs.run(g, 2, 0);
  ASSERT_EQ(members.size(), 1u);
  EXPECT_EQ(members[0], 2u);
  EXPECT_EQ(bfs.distance(2), 0u);
  EXPECT_EQ(bfs.distance(1), kUnreachable);
  EXPECT_EQ(bfs.distance(3), kUnreachable);
}

TEST(LocalBfs, IsolatedCenter) {
  const Graph g = from_edges(4, {{0, 1}, {1, 2}});
  LocalBfs bfs;
  const auto members = bfs.run(g, 3, 5);
  ASSERT_EQ(members.size(), 1u);
  EXPECT_EQ(members[0], 3u);
  EXPECT_EQ(bfs.distance(0), kUnreachable);
}

TEST(LocalBfs, MatchesTruncatedBfsAndPathOrder) {
  const Graph g = path_graph(9);
  LocalBfs bfs;
  const auto members = bfs.run(g, 4, 2);
  EXPECT_EQ(std::vector<NodeId>(members.begin(), members.end()),
            (std::vector<NodeId>{4, 3, 5, 2, 6}));
  EXPECT_EQ(bfs.distance(6), 2u);
  EXPECT_EQ(bfs.distance(7), kUnreachable);
}

TEST(LocalBfs, ReuseAcrossCallsLeavesNoStaleDistances) {
  const auto inst = testing::connected_udg(400, 10.0, 2);
  LocalBfs bfs;
  for (NodeId center : {0u, 399u, 17u, 17u, 200u}) {
    for (HopCount radius : {0u, 1u, 3u, 50u}) {
      expect_ball(bfs, inst.g, center, radius);
    }
  }
}

TEST(LocalBfs, ReuseAcrossGraphsOfDifferentSize) {
  const auto big = testing::connected_udg(500, 10.0, 3);
  const Graph small = cycle_graph(6);
  LocalBfs bfs;
  expect_ball(bfs, big.g, 499, 3);
  expect_ball(bfs, small, 0, 2);
  expect_ball(bfs, big.g, 3, 4);
  expect_ball(bfs, small, 5, 10);
  const auto bigger = testing::connected_udg(900, 10.0, 5);
  expect_ball(bfs, bigger.g, 899, 3);
}

TEST(LocalBfs, EpochWrapAroundKeepsRunsExact) {
  // An 8-bit stamp wraps every 255 runs; 600 runs cross it twice.
  const auto inst = testing::connected_udg(120, 8.0, 6);
  BasicLocalBfs<std::uint8_t> bfs;
  for (int run = 0; run < 600; ++run) {
    const auto center = static_cast<NodeId>((run * 37) % 120);
    const HopCount radius = static_cast<HopCount>(run % 4);
    expect_ball(bfs, inst.g, center, radius);
    if (::testing::Test::HasFailure()) {
      FAIL() << "run " << run;
    }
  }
}

TEST(Dijkstra, MatchesHandComputedLengths) {
  //   0 -(1)- 1 -(1)- 2 and 0 -(1.5 direct diagonal)- 2
  const std::vector<geom::Point> pts{{0.0, 0.0}, {1.0, 0.0}, {1.0, 1.0}};
  Graph g = from_edges(3, {{0, 1}, {1, 2}, {0, 2}});
  const auto dist = geometric_shortest_paths(g, pts, 0);
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
  EXPECT_DOUBLE_EQ(dist[1], 1.0);
  EXPECT_DOUBLE_EQ(dist[2], std::sqrt(2.0));  // direct edge beats the detour
}

TEST(Dijkstra, InfiniteWhenDisconnected) {
  const std::vector<geom::Point> pts{{0.0, 0.0}, {5.0, 0.0}};
  GraphBuilder b(2);
  const Graph g = std::move(b).build();
  const auto dist = geometric_shortest_paths(g, pts, 0);
  EXPECT_EQ(dist[1], kInfiniteLength);
}

TEST(Dijkstra, MaxLengthOfMinHopPaths) {
  // Two 2-hop routes 0->3: via 1 (short legs) or via 2 (long legs).  The
  // min-hop count is 2 either way; the max-length variant must take the
  // longer geometry.
  const std::vector<geom::Point> pts{
      {0.0, 0.0}, {0.5, 0.1}, {0.9, -0.4}, {1.0, 0.0}};
  const Graph g = from_edges(4, {{0, 1}, {1, 3}, {0, 2}, {2, 3}});
  const auto maxlen = max_length_of_min_hop_paths(g, pts, 0);
  const double via1 = geom::distance(pts[0], pts[1]) +
                      geom::distance(pts[1], pts[3]);
  const double via2 = geom::distance(pts[0], pts[2]) +
                      geom::distance(pts[2], pts[3]);
  EXPECT_DOUBLE_EQ(maxlen[3], std::max(via1, via2));
}

TEST(Dijkstra, MaxLengthUsesMinHopLayers) {
  // 0-1-2 is two hops; 0-2 direct is one hop.  The min-hop path is direct,
  // so its (max) length equals the direct edge length.
  const std::vector<geom::Point> pts{{0.0, 0.0}, {3.0, 4.0}, {1.0, 0.0}};
  const Graph g = from_edges(3, {{0, 1}, {1, 2}, {0, 2}});
  const auto maxlen = max_length_of_min_hop_paths(g, pts, 0);
  EXPECT_DOUBLE_EQ(maxlen[2], 1.0);
}

TEST(SpanningTree, BfsTreeLevelsAreHopDistances) {
  auto inst = testing::connected_udg(300, 10.0, 5);
  const auto tree = bfs_tree(inst.g, 0);
  const auto dist = bfs_distances(inst.g, 0);
  for (NodeId u = 0; u < inst.g.node_count(); ++u) {
    EXPECT_EQ(tree.level[u], dist[u]);
  }
  EXPECT_TRUE(tree.spans_all());
  EXPECT_TRUE(is_valid_tree(tree, inst.g));
}

TEST(SpanningTree, DfsTreeValid) {
  auto inst = testing::connected_udg(150, 9.0, 6);
  const auto tree = dfs_tree(inst.g, 3);
  EXPECT_TRUE(tree.spans_all());
  EXPECT_TRUE(is_valid_tree(tree, inst.g));
  EXPECT_GE(tree.depth(), bfs_tree(inst.g, 3).depth());
}

TEST(SpanningTree, StarDepthOne) {
  const Graph g = star_graph(6);
  const auto tree = bfs_tree(g, 0);
  EXPECT_EQ(tree.depth(), 1u);
  EXPECT_EQ(std::count(tree.parent.begin(), tree.parent.end(), NodeId{0}),
            6);
}

TEST(Subgraph, WeaklyInducedKeepsIncidentEdges) {
  // Star with center in the set: all edges stay.
  const Graph g = star_graph(4);
  std::vector<bool> mask(5, false);
  mask[0] = true;
  const Graph weak = weakly_induced_subgraph(g, mask);
  EXPECT_EQ(weak.edge_count(), 4u);
  // Leaf-only set keeps only that leaf's edge.
  std::vector<bool> leaf(5, false);
  leaf[2] = true;
  EXPECT_EQ(weakly_induced_subgraph(g, leaf).edge_count(), 1u);
}

TEST(Subgraph, InducedRequiresBothEndpoints) {
  const Graph g = path_graph(4);
  std::vector<bool> mask{true, true, false, true};
  const Graph ind = induced_subgraph(g, mask);
  EXPECT_EQ(ind.edge_count(), 1u);  // only (0,1)
}

TEST(Subgraph, MakeMask) {
  const NodeId members[] = {1, 3};
  const auto mask = make_mask(5, members);
  EXPECT_FALSE(mask[0]);
  EXPECT_TRUE(mask[1]);
  EXPECT_TRUE(mask[3]);
  EXPECT_THROW(make_mask(2, members), std::out_of_range);
}

TEST(Diameter, PathGraphExact) {
  const Graph g = path_graph(8);
  const auto metrics = distance_metrics(g);
  EXPECT_EQ(metrics.diameter, 7u);
  EXPECT_EQ(metrics.connected_pairs, 8u * 7u);
  EXPECT_GT(metrics.average_path_length, 2.0);
  EXPECT_EQ(double_sweep_diameter_bound(g, 3), 7u);  // exact on trees
}

TEST(Diameter, CycleGraph) {
  const Graph g = cycle_graph(10);
  EXPECT_EQ(distance_metrics(g).diameter, 5u);
  EXPECT_LE(double_sweep_diameter_bound(g), 5u);
}

TEST(Diameter, EmptyAndSingleton) {
  GraphBuilder b0(0);
  EXPECT_EQ(distance_metrics(std::move(b0).build()).diameter, 0u);
  GraphBuilder b1(1);
  const Graph one = std::move(b1).build();
  EXPECT_EQ(distance_metrics(one).diameter, 0u);
  EXPECT_EQ(double_sweep_diameter_bound(one), 0u);
}

TEST(Diameter, SampledIsLowerBoundOfExact) {
  const auto inst = testing::connected_udg(250, 9.0, 4);
  const auto exact = distance_metrics(inst.g);
  const auto sampled = distance_metrics(inst.g, 25);
  EXPECT_LE(sampled.diameter, exact.diameter);
  EXPECT_LE(double_sweep_diameter_bound(inst.g), exact.diameter);
  // Double sweep is usually tight on UDGs.
  EXPECT_GE(double_sweep_diameter_bound(inst.g) + 2, exact.diameter);
}

// Property sweep: BFS tree levels always match hop distances on random UDGs.
class GraphPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GraphPropertyTest, WeaklyInducedOfAllNodesIsIdentity) {
  auto inst = testing::connected_udg(200, 8.0, GetParam());
  std::vector<bool> all(inst.g.node_count(), true);
  const Graph weak = weakly_induced_subgraph(inst.g, all);
  EXPECT_EQ(weak.edge_count(), inst.g.edge_count());
}

TEST_P(GraphPropertyTest, TriangleInequalityOfHops) {
  auto inst = testing::connected_udg(120, 9.0, GetParam());
  const auto d0 = bfs_distances(inst.g, 0);
  const auto d1 = bfs_distances(inst.g, 1);
  for (NodeId u = 0; u < inst.g.node_count(); ++u) {
    EXPECT_LE(d0[u], d0[1] + d1[u]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace wcds::graph
