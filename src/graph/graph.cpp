#include "graph/graph.h"

#include <algorithm>

#include "check/check.h"

namespace wcds::graph {

Graph::Graph(std::vector<std::uint32_t> offsets, std::vector<NodeId> adjacency)
    : offsets_(std::move(offsets)), adjacency_(std::move(adjacency)) {
  WCDS_REQUIRE(!offsets_.empty(), "Graph: offsets must have n+1 entries");
  WCDS_REQUIRE(offsets_.back() == adjacency_.size(),
               "Graph: offsets/adjacency size mismatch");
  WCDS_DCHECK(std::is_sorted(offsets_.begin(), offsets_.end()),
              "Graph: offsets must be non-decreasing");
}

std::size_t Graph::max_degree() const {
  std::size_t best = 0;
  for (NodeId u = 0; u < node_count(); ++u) best = std::max(best, degree(u));
  return best;
}

double Graph::average_degree() const {
  if (node_count() == 0) return 0.0;
  return static_cast<double>(adjacency_.size()) /
         static_cast<double>(node_count());
}

std::vector<std::pair<NodeId, NodeId>> Graph::edges() const {
  std::vector<std::pair<NodeId, NodeId>> result;
  result.reserve(edge_count());
  for (NodeId u = 0; u < node_count(); ++u) {
    for (NodeId v : neighbors(u)) {
      if (u < v) result.emplace_back(u, v);
    }
  }
  return result;
}

void GraphBuilder::add_edge(NodeId u, NodeId v) {
  WCDS_REQUIRE(u != v, "GraphBuilder: self-loop at node " << u);
  WCDS_REQUIRE_BOUNDS(u < node_count_ && v < node_count_,
                      "GraphBuilder: node id out of range");
  edges_.emplace_back(u, v);
}

Graph GraphBuilder::build() && {
  // Deduplicate on the canonical (min, max) orientation.
  for (auto& [u, v] : edges_) {
    if (u > v) std::swap(u, v);
  }
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());

  std::vector<std::uint32_t> offsets(node_count_ + 1, 0);
  for (const auto& [u, v] : edges_) {
    ++offsets[u + 1];
    ++offsets[v + 1];
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];

  std::vector<NodeId> adjacency(offsets.back());
  std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const auto& [u, v] : edges_) {
    adjacency[cursor[u]++] = v;
    adjacency[cursor[v]++] = u;
  }
  // Rows are sorted because edges were sorted by (u, v) and filled in order
  // for u-rows; v-rows receive u in increasing u order as well.  Sort anyway
  // to keep the invariant independent of fill order subtleties.
  for (std::size_t u = 0; u < node_count_; ++u) {
    std::sort(adjacency.begin() + offsets[u], adjacency.begin() + offsets[u + 1]);
  }
  return Graph(std::move(offsets), std::move(adjacency));
}

Graph from_edges(std::size_t node_count,
                 std::span<const std::pair<NodeId, NodeId>> edges) {
  GraphBuilder builder(node_count);
  for (const auto& [u, v] : edges) builder.add_edge(u, v);
  return std::move(builder).build();
}

Graph from_edges(std::size_t node_count,
                 std::initializer_list<std::pair<NodeId, NodeId>> edges) {
  return from_edges(node_count,
                    std::span<const std::pair<NodeId, NodeId>>(
                        edges.begin(), edges.size()));
}

}  // namespace wcds::graph
