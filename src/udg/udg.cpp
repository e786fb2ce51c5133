#include "udg/udg.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <stdexcept>
#include <vector>

#include "check/check.h"
#include "graph/bfs.h"

namespace wcds::udg {
namespace {

using geom::Point;
using graph::GraphBuilder;
using NodeId = wcds::NodeId;
using Cell = std::pair<std::int32_t, std::int32_t>;

// A bounding box of at most this many cells per node is bucketed by a
// counting sort over the whole box; a larger (far-flung, sparse) one sorts
// the occupied cells' keys instead, so an adversarial spread costs
// O(n log n) rather than O(box).
constexpr std::uint64_t kDenseCellsPerNode = 4;

// The nodes grouped by grid cell, column-major (cells ordered by x, then
// y) and ascending by ID within a cell: one array of node IDs and the start
// of each cell's run in it.  Cells (x, y-1), (x, y) and (x, y+1) are
// adjacent runs, so a point's 3x3 block is three contiguous spans.
class CellGrid {
 public:
  explicit CellGrid(std::span<const Cell> cells) {
    const std::size_t n = cells.size();
    if (n == 0) return;
    min_x_ = max_x_ = cells[0].first;
    min_y_ = max_y_ = cells[0].second;
    for (const auto& [cx, cy] : cells) {
      min_x_ = std::min(min_x_, cx);
      max_x_ = std::max(max_x_, cx);
      min_y_ = std::min(min_y_, cy);
      max_y_ = std::max(max_y_, cy);
    }
    const auto width =
        static_cast<std::uint64_t>(std::int64_t{max_x_} - min_x_) + 1;
    height_ = static_cast<std::uint64_t>(std::int64_t{max_y_} - min_y_) + 1;
    order_.resize(n);
    // width * height <= kDenseCellsPerNode * n, without the overflow.
    dense_ = width <= kDenseCellsPerNode * n / height_;
    if (dense_) {
      // Counting sort by dense cell index; scattering in ID order keeps
      // each cell's run ascending.
      start_.assign(static_cast<std::size_t>(width * height_) + 1, 0);
      for (const Cell& c : cells) ++start_[dense_index(c) + 1];
      for (std::size_t k = 1; k < start_.size(); ++k) start_[k] += start_[k - 1];
      for (std::size_t i = 0; i < n; ++i) {
        order_[start_[dense_index(cells[i])]++] = static_cast<NodeId>(i);
      }
      // Each start_[k] now holds the end of cell k; shift back to starts.
      for (std::size_t k = start_.size() - 1; k > 0; --k) {
        start_[k] = start_[k - 1];
      }
      start_[0] = 0;
      return;
    }
    std::vector<std::pair<std::uint64_t, NodeId>> keyed(n);
    for (std::size_t i = 0; i < n; ++i) {
      keyed[i] = {sort_key(cells[i].first, cells[i].second),
                  static_cast<NodeId>(i)};
    }
    std::sort(keyed.begin(), keyed.end());
    keys_.reserve(n);
    start_.reserve(n + 1);
    for (std::size_t i = 0; i < n; ++i) {
      if (i == 0 || keyed[i].first != keyed[i - 1].first) {
        keys_.push_back(keyed[i].first);
        start_.push_back(static_cast<std::uint32_t>(i));
      }
      order_[i] = keyed[i].second;
    }
    start_.push_back(static_cast<std::uint32_t>(n));
  }

  // The nodes in cells (cx, cy-1), (cx, cy) and (cx, cy+1), one cell's run
  // after the other.  The caller guarantees cy +- 1 fits in int32.
  [[nodiscard]] std::span<const NodeId> column(std::int32_t cx,
                                               std::int32_t cy) const {
    std::size_t first = 0;
    std::size_t last = 0;  // one past the last cell
    if (dense_) {
      if (cx < min_x_ || cx > max_x_) return {};
      const std::int32_t lo = std::max(cy - 1, min_y_);
      const std::int32_t hi = std::min(cy + 1, max_y_);
      if (lo > hi) return {};
      first = dense_index({cx, lo});
      last = dense_index({cx, hi}) + 1;
    } else {
      const auto lo = std::lower_bound(keys_.begin(), keys_.end(),
                                       sort_key(cx, cy - 1));
      const auto hi = std::upper_bound(lo, keys_.end(), sort_key(cx, cy + 1));
      first = static_cast<std::size_t>(lo - keys_.begin());
      last = static_cast<std::size_t>(hi - keys_.begin());
    }
    return std::span<const NodeId>(order_).subspan(
        start_[first], start_[last] - start_[first]);
  }

 private:
  [[nodiscard]] std::size_t dense_index(const Cell& c) const {
    return static_cast<std::size_t>(
        static_cast<std::uint64_t>(std::int64_t{c.first} - min_x_) * height_ +
        static_cast<std::uint64_t>(std::int64_t{c.second} - min_y_));
  }
  // Orders cells by signed (x, y), so a column's cells are adjacent keys.
  [[nodiscard]] static std::uint64_t sort_key(std::int32_t cx,
                                              std::int32_t cy) {
    constexpr std::uint32_t kSignBit = 0x80000000U;
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(cx) ^
                                       kSignBit)
            << 32) |
           (static_cast<std::uint32_t>(cy) ^ kSignBit);
  }

  bool dense_ = true;
  std::int32_t min_x_ = 0, max_x_ = -1, min_y_ = 0, max_y_ = -1;
  std::uint64_t height_ = 0;
  std::vector<NodeId> order_;
  std::vector<std::uint32_t> start_;  // cell k is order_[start_[k], start_[k+1])
  std::vector<std::uint64_t> keys_;   // sparse: occupied cells' sort keys
};

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
  const double inv = 1.0 / range;
  std::vector<Cell> cells(n);
  for (std::size_t i = 0; i < n; ++i) {
    check_position(static_cast<NodeId>(i), points[i], inv);
    cells[i] = {cell_index(points[i].x, inv), cell_index(points[i].y, inv)};
  }
  const CellGrid grid(cells);

  // Every pair {i, j} in one 3x3 block, i < j, is judged once per pass from
  // its smaller endpoint, as the reference judges it.  `visit` receives 1
  // for an edge and 0 otherwise, so neither pass branches on the outcome.
  const auto for_each_candidate = [&](NodeId i, auto&& visit) {
    const auto [cx, cy] = cells[i];
    for (std::int32_t dx = -1; dx <= 1; ++dx) {
      for (NodeId j : grid.column(cx + dx, cy)) {
        visit(j, static_cast<std::uint32_t>(
                     (j > i) & geom::within_range(points[i], points[j], range)));
      }
    }
  };
  // Pass 1: degrees.
  std::vector<std::uint32_t> offsets(n + 1, 0);
  for (NodeId i = 0; i < n; ++i) {
    for_each_candidate(i, [&](NodeId j, std::uint32_t edge) {
      offsets[i + 1] += edge;
      offsets[j + 1] += edge;
    });
  }
  for (std::size_t i = 1; i <= n; ++i) offsets[i] += offsets[i - 1];

  // Pass 2: rows.  Each row is laid out with one spare slot after it, so a
  // candidate is written unconditionally and kept only when `edge` advances
  // the cursor.  Node j's row receives its smaller neighbors in ascending
  // order (as i ascends), so only the tail i itself appends needs sorting.
  std::vector<NodeId> adjacency(offsets[n] + n);
  std::vector<std::uint32_t> cursor(n);
  for (std::size_t i = 0; i < n; ++i) {
    cursor[i] = offsets[i] + static_cast<std::uint32_t>(i);
  }
  for (NodeId i = 0; i < n; ++i) {
    const std::uint32_t tail = cursor[i];
    for_each_candidate(i, [&](NodeId j, std::uint32_t edge) {
      adjacency[cursor[i]] = j;
      cursor[i] += edge;
      adjacency[cursor[j]] = i;
      cursor[j] += edge;
    });
    std::sort(adjacency.begin() + tail, adjacency.begin() + cursor[i]);
  }
  // Close up the spare slots: row i moves i places down.
  for (std::size_t i = 1; i < n; ++i) {
    std::copy(adjacency.begin() + offsets[i] + i,
              adjacency.begin() + offsets[i + 1] + i,
              adjacency.begin() + offsets[i]);
  }
  adjacency.resize(offsets[n]);
  return graph::Graph(std::move(offsets), std::move(adjacency));
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
