#include "mis/properties.h"

#include <algorithm>

#include "check/check.h"
#include "graph/bfs.h"
#include "graph/local_bfs.h"

namespace wcds::mis {

std::size_t max_mis_neighbors(const graph::Graph& g,
                              const std::vector<bool>& mis_mask) {
  WCDS_REQUIRE(mis_mask.size() == g.node_count(),
               "max_mis_neighbors: mask size mismatch");
  std::size_t worst = 0;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    if (mis_mask[u]) continue;
    std::size_t count = 0;
    for (NodeId v : g.neighbors(u)) {
      if (mis_mask[v]) ++count;
    }
    worst = std::max(worst, count);
  }
  return worst;
}

HopNeighborhoodStats mis_hop_neighborhood_stats(const graph::Graph& g,
                                                const MisResult& mis) {
  HopNeighborhoodStats stats;
  std::vector<bool> in_mis(g.node_count(), false);
  for (NodeId u : mis.members) in_mis[u] = true;
  graph::LocalBfs bfs;
  for (NodeId u : mis.members) {
    std::size_t at_two = 0;
    std::size_t within_three = 0;
    for (NodeId v : bfs.run(g, u, 3)) {
      if (v == u || !in_mis[v]) continue;
      if (bfs.distance(v) == 2) ++at_two;
      ++within_three;
    }
    stats.max_at_two_hops = std::max(stats.max_at_two_hops, at_two);
    stats.max_within_three_hops =
        std::max(stats.max_within_three_hops, within_three);
  }
  return stats;
}

graph::Graph mis_proximity_graph(const graph::Graph& g, const MisResult& mis,
                                 HopCount max_hops) {
  // Index MIS members densely.
  std::vector<NodeId> index(g.node_count(), kInvalidNode);
  for (NodeId i = 0; i < mis.members.size(); ++i) {
    index[mis.members[i]] = i;
  }
  graph::GraphBuilder builder(mis.members.size());
  graph::LocalBfs bfs;
  for (NodeId i = 0; i < mis.members.size(); ++i) {
    for (NodeId v : bfs.run(g, mis.members[i], max_hops)) {
      if (index[v] != kInvalidNode && index[v] > i) {
        builder.add_edge(i, index[v]);
      }
    }
  }
  return std::move(builder).build();
}

SubsetDistanceAudit audit_subset_distances(const graph::Graph& g,
                                           const MisResult& mis) {
  SubsetDistanceAudit audit;
  if (mis.members.size() <= 1) {
    audit.h2_connected = true;
    audit.h3_connected = true;
    return audit;
  }
  audit.h2_connected = graph::is_connected(mis_proximity_graph(g, mis, 2));
  audit.h3_connected =
      audit.h2_connected || graph::is_connected(mis_proximity_graph(g, mis, 3));
  return audit;
}

HopCount max_complementary_subset_distance(const graph::Graph& g,
                                           const MisResult& mis) {
  if (mis.members.size() <= 1) return 0;
  // The smallest k with H_k connected equals the max edge weight on a minimum
  // bottleneck spanning tree of the complete graph over MIS members weighted
  // by hop distance; we find it by checking H_k connectivity for growing k.
  // MIS pairwise hop distances first (one BFS per member).
  const std::size_t m = mis.members.size();
  std::vector<std::vector<HopCount>> hop(m);
  for (std::size_t i = 0; i < m; ++i) {
    const auto dist = graph::bfs_distances(g, mis.members[i]);
    hop[i].resize(m);
    for (std::size_t j = 0; j < m; ++j) {
      hop[i][j] = dist[mis.members[j]];
    }
  }
  // Prim-style minimum bottleneck: grow from member 0, always absorbing the
  // member with the smallest hop distance to the tree; the answer is the
  // largest absorption distance.
  std::vector<HopCount> best(m, kUnreachable);
  std::vector<bool> in_tree(m, false);
  best[0] = 0;
  HopCount bottleneck = 0;
  for (std::size_t step = 0; step < m; ++step) {
    std::size_t next = m;
    for (std::size_t j = 0; j < m; ++j) {
      if (!in_tree[j] && (next == m || best[j] < best[next])) next = j;
    }
    if (best[next] == kUnreachable) return kUnreachable;  // G disconnected
    bottleneck = std::max(bottleneck, best[next]);
    in_tree[next] = true;
    for (std::size_t j = 0; j < m; ++j) {
      if (!in_tree[j] && hop[next][j] < best[j]) best[j] = hop[next][j];
    }
  }
  return bottleneck;
}

}  // namespace wcds::mis
