// Immutable undirected graph in compressed-sparse-row form.
//
// Build with GraphBuilder (deduplicating, loop-rejecting), then query.  All
// algorithm layers (MIS, WCDS, spanner analysis, simulator) operate on this
// type; unit-disk graphs are produced by src/udg.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/types.h"

namespace wcds::graph {

class Graph {
 public:
  Graph() = default;

  // `offsets` has n+1 entries; `adjacency[offsets[u]..offsets[u+1])` are the
  // neighbors of u, sorted ascending.  GraphBuilder produces this layout.
  Graph(std::vector<std::uint32_t> offsets, std::vector<NodeId> adjacency);

  [[nodiscard]] std::size_t node_count() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  // Number of undirected edges.
  [[nodiscard]] std::size_t edge_count() const { return adjacency_.size() / 2; }

  [[nodiscard]] std::size_t degree(NodeId u) const {
    return offsets_[u + 1] - offsets_[u];
  }

  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const {
    return {adjacency_.data() + offsets_[u], degree(u)};
  }

  // O(log deg(u)) membership test on the sorted adjacency row.
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const {
    return edge_slot(u, v) != kNoSlot;
  }

  // Directed CSR slots: slot of (u, v) is row_begin(u) + index of v in u's
  // sorted adjacency row.  Slots are dense in [0, adjacency_slots()) and
  // stable for the graph's lifetime, so per-link state (e.g. the simulator's
  // FIFO link clocks) can live in a flat vector instead of a hash map.
  [[nodiscard]] std::size_t adjacency_slots() const { return adjacency_.size(); }
  [[nodiscard]] std::size_t row_begin(NodeId u) const { return offsets_[u]; }

  // Slot of directed pair (u, v), or kNoSlot when v is not adjacent to u.
  // O(log deg(u)), same search as has_edge.
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  [[nodiscard]] std::size_t edge_slot(NodeId u, NodeId v) const {
    // Branch-free search: the simulator looks up a slot per unicast and per
    // delivery, on rows too short for a mispredicted branch to pay off.
    std::size_t len = degree(u);
    if (len == 0) return kNoSlot;
    const NodeId* base = adjacency_.data() + offsets_[u];
    while (len > 1) {
      const std::size_t half = len / 2;
      base = base[half] <= v ? base + half : base;
      len -= half;
    }
    return *base == v ? static_cast<std::size_t>(base - adjacency_.data())
                      : kNoSlot;
  }

  [[nodiscard]] std::size_t max_degree() const;
  [[nodiscard]] double average_degree() const;

  // All undirected edges as (u, v) with u < v, in row order.
  [[nodiscard]] std::vector<std::pair<NodeId, NodeId>> edges() const;

 private:
  std::vector<std::uint32_t> offsets_;
  std::vector<NodeId> adjacency_;
};

// Collects undirected edges, then emits a Graph.  Duplicate edges are merged;
// self-loops are rejected (the UDG model has none).
class GraphBuilder {
 public:
  explicit GraphBuilder(std::size_t node_count) : node_count_(node_count) {}

  void add_edge(NodeId u, NodeId v);

  [[nodiscard]] std::size_t node_count() const { return node_count_; }

  // Consumes the builder.
  [[nodiscard]] Graph build() &&;

 private:
  std::size_t node_count_;
  std::vector<std::pair<NodeId, NodeId>> edges_;
};

// Graph from an explicit edge list (test convenience).
[[nodiscard]] Graph from_edges(std::size_t node_count,
                               std::span<const std::pair<NodeId, NodeId>> edges);
[[nodiscard]] Graph from_edges(
    std::size_t node_count,
    std::initializer_list<std::pair<NodeId, NodeId>> edges);

}  // namespace wcds::graph
