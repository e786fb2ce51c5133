// Rooted spanning trees and the level assignment of Section 2.2.
//
// Algorithm I ranks nodes by (level, ID) where level is the hop distance from
// the root of a spanning tree T.  A BFS tree gives exactly that level; an
// arbitrary spanning tree gives the tree distance.  Both are provided: the
// paper says "an arbitrary spanning tree" but its distributed construction
// (flood from the leader, adopt first sender as parent) is a BFS tree, so the
// BFS variant is the reference.
#pragma once

#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace wcds::graph {

struct SpanningTree {
  NodeId root = kInvalidNode;
  std::vector<NodeId> parent;       // parent[root] == kInvalidNode
  std::vector<HopCount> level;      // level[root] == 0; kUnreachable if off-tree

  [[nodiscard]] std::size_t node_count() const { return parent.size(); }
  // True iff every node is on the tree (graph connected).
  [[nodiscard]] bool spans_all() const;
  [[nodiscard]] HopCount depth() const;
};

// BFS spanning tree rooted at `root`, one LocalBfs run: levels equal hop
// distance from root, and a node's parent is the node that discovered it.
[[nodiscard]] SpanningTree bfs_tree(const Graph& g, NodeId root);

// DFS spanning tree rooted at `root` (the "arbitrary" tree alternative);
// levels equal *tree* distance from the root, not graph distance.
[[nodiscard]] SpanningTree dfs_tree(const Graph& g, NodeId root);

// Validates parent/level consistency (every tree node's parent is a
// neighbor one level up, so following parents reaches the root).
[[nodiscard]] bool is_valid_tree(const SpanningTree& tree, const Graph& g);

}  // namespace wcds::graph
