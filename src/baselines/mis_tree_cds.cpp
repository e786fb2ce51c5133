#include "baselines/mis_tree_cds.h"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/bfs.h"
#include "graph/local_bfs.h"
#include "mis/mis.h"

namespace wcds::baselines {

core::WcdsResult mis_tree_cds(const graph::Graph& g) {
  const std::size_t n = g.node_count();
  if (n == 0) throw std::invalid_argument("mis_tree_cds: empty graph");
  if (!graph::is_connected(g)) {
    throw std::invalid_argument("mis_tree_cds: graph must be connected");
  }

  const auto s = mis::greedy_mis_by_id(g);
  const std::size_t m = s.members.size();

  // Prim-style spanning tree of H_3 over the MIS, growing from the smallest
  // member; each absorbed member remembers the tree edge that reached it.
  // hop(next, j) is read off one radius-3 ball run from each member as it
  // is absorbed.
  struct TreeEdge {
    std::size_t from, to;
    HopCount hops;
  };
  graph::LocalBfs bfs;
  std::vector<bool> in_tree(m, false);
  std::vector<HopCount> best(m, kUnreachable);
  std::vector<std::size_t> best_from(m, m);
  std::vector<TreeEdge> tree_edges;
  best[0] = 0;
  for (std::size_t step = 0; step < m; ++step) {
    std::size_t next = m;
    for (std::size_t j = 0; j < m; ++j) {
      if (!in_tree[j] && (next == m || best[j] < best[next])) next = j;
    }
    if (best[next] == kUnreachable) {
      throw std::logic_error("mis_tree_cds: H_3 disconnected (Lemma 3?)");
    }
    in_tree[next] = true;
    if (best_from[next] != m) {
      tree_edges.push_back({best_from[next], next, best[next]});
    }
    bfs.run(g, s.members[next], 3);
    for (std::size_t j = 0; j < m; ++j) {
      const HopCount hop = bfs.distance(s.members[j]);
      if (!in_tree[j] && hop < best[j]) {
        best[j] = hop;
        best_from[j] = next;
      }
    }
  }

  // Promote connectors along each tree edge.
  std::vector<bool> connector(n, false);
  for (const TreeEdge& edge : tree_edges) {
    const NodeId a = s.members[edge.from];
    const NodeId b = s.members[edge.to];
    if (edge.hops == 2) {
      // Smallest common neighbor.
      for (NodeId v : g.neighbors(a)) {
        if (g.has_edge(v, b)) {
          connector[v] = true;
          break;  // neighbors() ascending
        }
      }
    } else {
      // Smallest (v, x) with a-v-x-b.
      bool done = false;
      for (NodeId v : g.neighbors(a)) {
        for (NodeId x : g.neighbors(v)) {
          if (g.has_edge(x, b)) {
            connector[v] = true;
            connector[x] = true;
            done = true;
            break;
          }
        }
        if (done) break;
      }
      if (!done) throw std::logic_error("mis_tree_cds: lost 3-hop path");
    }
  }

  std::vector<NodeId> mis = s.members;
  std::sort(mis.begin(), mis.end());
  std::vector<NodeId> connectors;
  for (NodeId v = 0; v < n; ++v) {
    if (connector[v] && !s.mask[v]) connectors.push_back(v);
  }
  return core::WcdsResult::from_members(n, std::move(mis),
                                        std::move(connectors));
}

}  // namespace wcds::baselines
