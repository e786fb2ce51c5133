#include "graph/bfs.h"

#include <algorithm>
#include <queue>

#include "check/check.h"
#include "graph/local_bfs.h"

namespace wcds::graph {

std::vector<HopCount> bfs_distances(const Graph& g, NodeId source) {
  return multi_source_bfs(g, std::span<const NodeId>(&source, 1));
}

std::vector<HopCount> multi_source_bfs(const Graph& g,
                                       std::span<const NodeId> sources) {
  std::vector<HopCount> dist(g.node_count(), kUnreachable);
  std::queue<NodeId> frontier;
  for (NodeId s : sources) {
    WCDS_DCHECK_LT(s, g.node_count(), "multi_source_bfs: source out of range");
    if (dist[s] != 0) {
      dist[s] = 0;
      frontier.push(s);
    }
  }
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (NodeId v : g.neighbors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        frontier.push(v);
      }
    }
  }
  return dist;
}

HopCount hop_distance(const Graph& g, NodeId source, NodeId target) {
  WCDS_DCHECK_LT(source, g.node_count(), "hop_distance: source out of range");
  WCDS_DCHECK_LT(target, g.node_count(), "hop_distance: target out of range");
  if (source == target) return 0;
  std::vector<HopCount> dist(g.node_count(), kUnreachable);
  std::queue<NodeId> frontier;
  dist[source] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (NodeId v : g.neighbors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        if (v == target) return dist[v];
        frontier.push(v);
      }
    }
  }
  return kUnreachable;
}

Components connected_components(const Graph& g) {
  Components result;
  result.label.assign(g.node_count(), kInvalidNode);
  std::queue<NodeId> frontier;
  for (NodeId s = 0; s < g.node_count(); ++s) {
    if (result.label[s] != kInvalidNode) continue;
    const std::uint32_t id = result.count++;
    result.label[s] = id;
    frontier.push(s);
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop();
      for (NodeId v : g.neighbors(u)) {
        if (result.label[v] == kInvalidNode) {
          result.label[v] = id;
          frontier.push(v);
        }
      }
    }
  }
  return result;
}

bool is_connected(const Graph& g) {
  if (g.node_count() <= 1) return true;
  return connected_components(g).count == 1;
}

HopCount eccentricity(const Graph& g, NodeId source) {
  const auto dist = bfs_distances(g, source);
  HopCount ecc = 0;
  for (HopCount d : dist) {
    if (d != kUnreachable) ecc = std::max(ecc, d);
  }
  return ecc;
}

std::vector<NodeId> ball(const Graph& g, NodeId center, HopCount radius) {
  LocalBfs bfs;
  const auto members = bfs.run(g, center, radius);
  std::vector<NodeId> sorted(members.begin(), members.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

}  // namespace wcds::graph
