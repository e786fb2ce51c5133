#include "udg/udg.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "check/check.h"
#include "graph/bfs.h"

namespace wcds::udg {
namespace {

using geom::Point;
using graph::GraphBuilder;
using NodeId = wcds::NodeId;

}  // namespace

void check_position(NodeId u, const Point& p, double inverse_range) {
  WCDS_REQUIRE(std::isfinite(p.x) && std::isfinite(p.y),
               "udg: node " << u << " has a non-finite position (" << p.x
                            << ", " << p.y << ")");
  // Strict bounds leave room for the neighbor cells at index +-1.
  constexpr double kLo = std::numeric_limits<std::int32_t>::min();
  constexpr double kHi = std::numeric_limits<std::int32_t>::max();
  const double cx = std::floor(p.x * inverse_range);
  const double cy = std::floor(p.y * inverse_range);
  WCDS_REQUIRE(cx > kLo && cx < kHi && cy > kLo && cy < kHi,
               "udg: node " << u << " at (" << p.x << ", " << p.y
                            << ") lies outside the int32 cell grid for range "
                            << 1.0 / inverse_range);
}

graph::Graph build_udg_reference(std::span<const Point> points, double range) {
  if (range <= 0.0) throw std::invalid_argument("build_udg: range <= 0");
  const std::size_t n = points.size();
  GraphBuilder builder(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (geom::within_range(points[i], points[j], range)) {
        builder.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(j));
      }
    }
  }
  return std::move(builder).build();
}

graph::Graph build_udg(std::span<const Point> points, double range) {
  if (range <= 0.0) throw std::invalid_argument("build_udg: range <= 0");
  const std::size_t n = points.size();
  // One pass computes every node's cell coordinates (cached — the second
  // pass reuses them instead of re-deriving and re-hashing) and the grid's
  // bounding box, which bounds the number of occupied cells far tighter
  // than n for dense instances.
  const double inv = 1.0 / range;
  std::vector<std::pair<std::int32_t, std::int32_t>> coords(n);
  std::int32_t min_cx = 0, max_cx = 0, min_cy = 0, max_cy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    check_position(static_cast<NodeId>(i), points[i], inv);
    const std::int32_t cx = cell_index(points[i].x, inv);
    const std::int32_t cy = cell_index(points[i].y, inv);
    coords[i] = {cx, cy};
    if (i == 0) {
      min_cx = max_cx = cx;
      min_cy = max_cy = cy;
    } else {
      min_cx = std::min(min_cx, cx);
      max_cx = std::max(max_cx, cx);
      min_cy = std::min(min_cy, cy);
      max_cy = std::max(max_cy, cy);
    }
  }
  std::unordered_map<std::uint64_t, std::vector<NodeId>> cells;
  if (n > 0) {
    const std::uint64_t grid_cells =
        (static_cast<std::uint64_t>(max_cx - min_cx) + 1) *
        (static_cast<std::uint64_t>(max_cy - min_cy) + 1);
    cells.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(n, grid_cells)));
  }
  for (std::size_t i = 0; i < n; ++i) {
    cells[cell_key(coords[i].first, coords[i].second)].push_back(
        static_cast<NodeId>(i));
  }
  GraphBuilder builder(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto [cx, cy] = coords[i];
    for (std::int32_t dx = -1; dx <= 1; ++dx) {
      for (std::int32_t dy = -1; dy <= 1; ++dy) {
        const auto it = cells.find(cell_key(cx + dx, cy + dy));
        if (it == cells.end()) continue;
        for (NodeId j : it->second) {
          if (j <= static_cast<NodeId>(i)) continue;  // each pair once
          if (geom::within_range(points[i], points[j], range)) {
            builder.add_edge(static_cast<NodeId>(i), j);
          }
        }
      }
    }
  }
  return std::move(builder).build();
}

UdgStats analyze(const graph::Graph& g) {
  UdgStats stats;
  stats.nodes = g.node_count();
  stats.edges = g.edge_count();
  stats.max_degree = g.max_degree();
  stats.average_degree = g.average_degree();
  stats.components = graph::connected_components(g).count;
  return stats;
}

}  // namespace wcds::udg
