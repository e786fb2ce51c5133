// The unit-disk graph over a changing deployment, patched per event.
//
// DynamicWcds's radio environment: positions, on/off flags, a grid-cell
// index of positions and one sorted adjacency row per node.  Cells are
// range x range and keyed exactly like udg::build_udg's grid, and pairs are
// judged by the same geom::within_range predicate, so after any sequence
// of events the rows equal udg::build_udg over the current positions with
// every edge at an inactive node removed.  A move or on/off event rescans
// only the 3x3 cells around the node and rewrites only its row and the rows
// of its old and new neighbors: O(local density), independent of n.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "geom/point.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace wcds::maintenance {

class IncrementalUdg {
 public:
  // All nodes start active.  Throws std::invalid_argument for range <= 0 or
  // a position that check_position() rejects.
  IncrementalUdg(std::vector<geom::Point> points, double range);

  [[nodiscard]] std::size_t node_count() const { return points_.size(); }
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const {
    return rows_[u];
  }
  // O(log deg(u)) on the sorted row.
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;
  [[nodiscard]] const geom::Point& position(NodeId u) const {
    return points_[u];
  }
  [[nodiscard]] bool is_active(NodeId u) const { return active_[u]; }
  [[nodiscard]] const std::vector<bool>& active_mask() const {
    return active_;
  }

  // Events.  Each rewrites u's row and the rows of u's old and new
  // neighbors.  relocate() validates `destination` before changing anything.
  void relocate(NodeId u, const geom::Point& destination);
  void set_active(NodeId u, bool active);

  // The current graph in CSR form: O(n + m), for audits and inspection.
  [[nodiscard]] graph::Graph materialize() const;

 private:
  using Cell = std::pair<std::int32_t, std::int32_t>;

  // Throws std::invalid_argument unless both coordinates are finite and the
  // grid cell holding `p` and its eight neighbors have int32 indices.
  void check_position(NodeId u, const geom::Point& p) const;
  [[nodiscard]] Cell cell_of(const geom::Point& p) const;
  // u's row as the grid says it should be (empty when u is inactive).
  [[nodiscard]] std::vector<NodeId> scan_row(NodeId u) const;
  // Replaces u's row with `row`, patching the partner rows that differ.
  void rewrite_row(NodeId u, std::vector<NodeId> row);
  // Place u in, or take it out of, the cell of its current position.
  void add_to_cell(NodeId u);
  void remove_from_cell(NodeId u);

  std::vector<geom::Point> points_;
  std::vector<bool> active_;
  double range_;
  double inverse_range_;
  // Grid cell key -> the nodes (active or not) placed in it.  Only looked
  // up by key; the order inside a cell never reaches a row (rows are sorted).
  std::unordered_map<std::uint64_t, std::vector<NodeId>> grid_;
  std::vector<std::vector<NodeId>> rows_;  // ascending neighbor ids
};

}  // namespace wcds::maintenance
