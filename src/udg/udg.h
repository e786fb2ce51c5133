// Unit-disk graph construction (paper, Section 1; Clark/Colbourn/Johnson).
//
// G = (V, E) where uv is an edge iff ||uv|| <= range (default 1).  Two
// builders are provided:
//  - build_udg_reference: O(n^2) pair scan, the obviously-correct oracle;
//  - build_udg:           grid-bucket builder, expected O(n + m) for bounded
//                         density, used everywhere at scale.  It buckets the
//                         nodes by cell with a counting sort (so the cell
//                         order of the nodes falls out of the build) and
//                         writes the rows straight into the CSR arrays: a
//                         constant number of allocations whatever n is.  A
//                         bounding box of more than a few cells per node
//                         sorts the occupied cells instead: O(n log n).
// Tests assert both produce identical graphs.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>

#include "geom/point.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace wcds::udg {

[[nodiscard]] graph::Graph build_udg_reference(std::span<const geom::Point> points,
                                               double range = 1.0);

[[nodiscard]] graph::Graph build_udg(std::span<const geom::Point> points,
                                     double range = 1.0);

// build_udg's grid: cells are range x range, so only the 3x3 block of cells
// around a point can hold its in-range partners.  Shared with
// maintenance::IncrementalUdg, which must bucket points exactly the same way
// (it keys a hash of cells with cell_key).
// The caller guarantees the floored value fits in int32 (check_position).
[[nodiscard]] inline std::int32_t cell_index(double coordinate,
                                             double inverse_range) {
  return static_cast<std::int32_t>(std::floor(coordinate * inverse_range));
}
[[nodiscard]] inline std::uint64_t cell_key(std::int32_t cx, std::int32_t cy) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx)) << 32) |
         static_cast<std::uint32_t>(cy);
}

// Throws std::invalid_argument unless both coordinates of node u's position
// are finite and the grid cell holding it and its eight neighbors have int32
// indices.  build_udg and maintenance::IncrementalUdg check every position
// with it before bucketing.
void check_position(NodeId u, const geom::Point& p, double inverse_range);

// Density diagnostics used by workload calibration and the F1 experiment.
struct UdgStats {
  std::size_t nodes = 0;
  std::size_t edges = 0;
  std::size_t max_degree = 0;
  double average_degree = 0.0;
  std::size_t components = 0;
};

[[nodiscard]] UdgStats analyze(const graph::Graph& g);

}  // namespace wcds::udg
