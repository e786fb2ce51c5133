#include "graph/spanning_tree.h"

#include <algorithm>
#include <stack>

#include "graph/local_bfs.h"

namespace wcds::graph {

bool SpanningTree::spans_all() const {
  return std::none_of(level.begin(), level.end(),
                      [](HopCount l) { return l == kUnreachable; });
}

HopCount SpanningTree::depth() const {
  HopCount d = 0;
  for (HopCount l : level) {
    if (l != kUnreachable) d = std::max(d, l);
  }
  return d;
}

SpanningTree bfs_tree(const Graph& g, NodeId root) {
  SpanningTree tree;
  tree.root = root;
  tree.parent.assign(g.node_count(), kInvalidNode);
  tree.level.assign(g.node_count(), kUnreachable);
  LocalBfs bfs;
  for (const NodeId v : bfs.run(g, root, kUnreachable)) {
    tree.level[v] = bfs.distance(v);
    tree.parent[v] = bfs.parent(v);
  }
  return tree;
}

SpanningTree dfs_tree(const Graph& g, NodeId root) {
  SpanningTree tree;
  tree.root = root;
  tree.parent.assign(g.node_count(), kInvalidNode);
  tree.level.assign(g.node_count(), kUnreachable);
  std::stack<NodeId> stack;
  tree.level[root] = 0;
  stack.push(root);
  while (!stack.empty()) {
    const NodeId u = stack.top();
    stack.pop();
    for (NodeId v : g.neighbors(u)) {
      if (tree.level[v] == kUnreachable && v != root) {
        tree.level[v] = tree.level[u] + 1;
        tree.parent[v] = u;
        stack.push(v);
      }
    }
  }
  return tree;
}

bool is_valid_tree(const SpanningTree& tree, const Graph& g) {
  const std::size_t n = g.node_count();
  if (tree.parent.size() != n || tree.level.size() != n ||
      tree.root >= n) {
    return false;
  }
  if (tree.parent[tree.root] != kInvalidNode || tree.level[tree.root] != 0) {
    return false;
  }
  for (NodeId u = 0; u < n; ++u) {
    if (u == tree.root) continue;
    if (tree.level[u] == kUnreachable) {
      if (tree.parent[u] != kInvalidNode) return false;
      continue;
    }
    const NodeId p = tree.parent[u];
    if (p == kInvalidNode || p >= n) return false;
    if (!g.has_edge(u, p)) return false;
    if (tree.level[u] != tree.level[p] + 1) return false;
  }
  return true;
}

}  // namespace wcds::graph
