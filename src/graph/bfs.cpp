#include "graph/bfs.h"

#include "check/check.h"

namespace wcds::graph {

std::vector<HopCount> bfs_distances(const Graph& g, NodeId source) {
  WCDS_DCHECK_LT(source, g.node_count(), "bfs_distances: source out of range");
  LocalBfs bfs;
  std::vector<HopCount> dist(g.node_count(), kUnreachable);
  for (const NodeId v : bfs.run(g, source, kUnreachable)) {
    dist[v] = bfs.distance(v);
  }
  return dist;
}

HopCount hop_distance(const Graph& g, NodeId source, NodeId target) {
  WCDS_DCHECK_LT(source, g.node_count(), "hop_distance: source out of range");
  WCDS_DCHECK_LT(target, g.node_count(), "hop_distance: target out of range");
  LocalBfs bfs;
  bool found = source == target;
  bfs.run(g, source, kUnreachable, [&](NodeId /*u*/, NodeId v) {
    if (found) return false;
    found = v == target;
    return true;
  });
  return bfs.distance(target);
}

Components connected_components(const Graph& g) {
  LocalBfs bfs;
  return label_components(g, bfs, [](NodeId) { return true; }, AdmitAll{});
}

bool is_connected(const Graph& g) {
  if (g.node_count() <= 1) return true;
  LocalBfs bfs;
  return bfs.run(g, 0, kUnreachable).size() == g.node_count();
}

HopCount eccentricity(const Graph& g, NodeId source) {
  LocalBfs bfs;
  const auto reached = bfs.run(g, source, kUnreachable);
  return bfs.distance(reached.back());  // BFS order: the farthest comes last
}

}  // namespace wcds::graph
