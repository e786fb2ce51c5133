// The unit-disk graph over a changing deployment, patched per event.
//
// DynamicWcds's radio environment: positions, on/off flags, a grid-cell
// index of positions and one adjacency row per node.  Cells are
// range x range and a point lands in the same cell (udg::cell_index) as in
// udg::build_udg's grid.  build_udg lays its cells out flat, once; this
// index keeps a hash from udg::cell_key to the cell's nodes instead, so an
// event can move one node between cells.  Pairs are judged by the same
// geom::within_range predicate (symmetric to the bit: swapping the points
// negates each difference exactly), so after any sequence of events the rows
// equal udg::build_udg over the current positions with every edge at an
// inactive node removed.  A move or on/off event rescans only the 3x3 cells
// around the node and rewrites only its row and the rows of its old and new
// neighbors: O(local density), independent of n.
//
// Name and slot.  A node's name is its external ID; it orders every row and
// is what the caller ranks by.  Its slot is where its data lives.  At
// construction the nodes take slots in Morton (Z-curve) order of their grid
// cells, ties by name, so the nodes of one 3-hop ball sit in a few short
// slot runs instead of all over memory.  A move or an on/off switch never
// re-slots a node.  Stored by slot: points, active flags, rows, the members
// of each grid cell and the name of each slot.  Stored by name: only the
// slot of each name.  Rows hold slots, ascending by name.  Every method
// takes and returns slots except materialize() and active_mask(), which
// are by name.
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
  // All nodes start active; node `name` sits at points[name].  Throws
  // std::invalid_argument for range <= 0 or a position that
  // udg::check_position() rejects.
  IncrementalUdg(std::vector<geom::Point> points, double range);

  [[nodiscard]] std::size_t node_count() const { return points_.size(); }
  [[nodiscard]] NodeId slot_of(NodeId name) const { return slot_of_[name]; }
  [[nodiscard]] NodeId name_of(NodeId slot) const { return name_of_[slot]; }
  // The neighbors of slot s, as slots ascending by name.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId s) const {
    return rows_[s];
  }
  // O(log deg(s)) on the name-sorted row.
  [[nodiscard]] bool has_edge(NodeId s, NodeId t) const;
  [[nodiscard]] const geom::Point& position(NodeId s) const {
    return points_[s];
  }
  [[nodiscard]] bool is_active(NodeId s) const { return active_[s]; }

  // Events on slot s.  Each rewrites s's row and the rows of its old and new
  // neighbors.  relocate() validates `destination` before changing anything.
  void relocate(NodeId s, const geom::Point& destination);
  void set_active(NodeId s, bool active);

  // Whole-network views by name, O(n + m), for audits and inspection: the
  // current graph in CSR form and the on/off flags.
  [[nodiscard]] graph::Graph materialize() const;
  [[nodiscard]] std::vector<bool> active_mask() const;

 private:
  using Cell = std::pair<std::int32_t, std::int32_t>;

  [[nodiscard]] Cell cell_of(const geom::Point& p) const;
  // Fills row_ with s's row as the grid says it should be (empty when s is
  // inactive).
  void scan_row(NodeId s);
  // Replaces s's row with row_, patching the partner rows that differ.
  void rewrite_row(NodeId s);
  // Place s in, or take it out of, the cell of its current position.
  void add_to_cell(NodeId s);
  void remove_from_cell(NodeId s);

  double range_;
  double inverse_range_;
  std::vector<NodeId> name_of_;  // by slot
  std::vector<NodeId> slot_of_;  // by name
  std::vector<geom::Point> points_;
  std::vector<bool> active_;
  // Grid cell key -> the slots (active or not) placed in it.  Only looked
  // up by key; the order inside a cell never reaches a row (rows are sorted).
  // A cell once visited keeps its entry, empty or not, so that steady-state
  // events do not allocate.
  std::unordered_map<std::uint64_t, std::vector<NodeId>> grid_;
  // Slots ascending by name.  Allocated in slot order at construction,
  // with room to grow, so neighboring slots' rows start out side by side.
  std::vector<std::vector<NodeId>> rows_;
  std::vector<NodeId> row_;  // scan_row's reused output
};

}  // namespace wcds::maintenance
