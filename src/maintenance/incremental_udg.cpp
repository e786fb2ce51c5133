#include "maintenance/incremental_udg.h"

#include <algorithm>

#include "check/check.h"
#include "udg/udg.h"

namespace wcds::maintenance {

IncrementalUdg::IncrementalUdg(std::vector<geom::Point> points, double range)
    : points_(std::move(points)),
      active_(points_.size(), true),
      range_(range),
      inverse_range_(1.0 / range),
      rows_(points_.size()) {
  WCDS_REQUIRE(range_ > 0.0, "DynamicWcds: range <= 0");
  for (NodeId u = 0; u < points_.size(); ++u) {
    udg::check_position(u, points_[u], inverse_range_);
    add_to_cell(u);
  }
  for (NodeId u = 0; u < points_.size(); ++u) {
    scan_row(u);
    rows_[u] = row_;
  }
}

bool IncrementalUdg::has_edge(NodeId u, NodeId v) const {
  const auto& row = rows_[u];
  return std::binary_search(row.begin(), row.end(), v);
}

IncrementalUdg::Cell IncrementalUdg::cell_of(const geom::Point& p) const {
  return {udg::cell_index(p.x, inverse_range_),
          udg::cell_index(p.y, inverse_range_)};
}

void IncrementalUdg::add_to_cell(NodeId u) {
  const auto [cx, cy] = cell_of(points_[u]);
  grid_[udg::cell_key(cx, cy)].push_back(u);
}

void IncrementalUdg::remove_from_cell(NodeId u) {
  const auto [cx, cy] = cell_of(points_[u]);
  const auto it = grid_.find(udg::cell_key(cx, cy));
  auto& members = it->second;
  *std::find(members.begin(), members.end(), u) = members.back();
  members.pop_back();  // an emptied cell keeps its entry for the next visit
}

void IncrementalUdg::scan_row(NodeId u) {
  row_.clear();
  if (!active_[u]) return;
  const auto [cx, cy] = cell_of(points_[u]);
  for (std::int32_t dx = -1; dx <= 1; ++dx) {
    for (std::int32_t dy = -1; dy <= 1; ++dy) {
      const auto it = grid_.find(udg::cell_key(cx + dx, cy + dy));
      if (it == grid_.end()) continue;
      for (const NodeId v : it->second) {
        if (v == u || !active_[v]) continue;
        // Same argument order as build_udg (lower id first).
        if (geom::within_range(points_[std::min(u, v)],
                               points_[std::max(u, v)], range_)) {
          row_.push_back(v);
        }
      }
    }
  }
  std::sort(row_.begin(), row_.end());
}

void IncrementalUdg::rewrite_row(NodeId u) {
  auto& old_row = rows_[u];
  // Merge walk over the two sorted rows: partners only in the old row lose
  // u, partners only in the new one gain it.
  auto o = old_row.begin();
  auto r = row_.begin();
  while (o != old_row.end() || r != row_.end()) {
    if (r == row_.end() || (o != old_row.end() && *o < *r)) {
      auto& partner = rows_[*o];
      partner.erase(std::lower_bound(partner.begin(), partner.end(), u));
      ++o;
    } else if (o == old_row.end() || *r < *o) {
      auto& partner = rows_[*r];
      partner.insert(std::lower_bound(partner.begin(), partner.end(), u), u);
      ++r;
    } else {
      ++o;
      ++r;
    }
  }
  old_row.assign(row_.begin(), row_.end());
}

void IncrementalUdg::relocate(NodeId u, const geom::Point& destination) {
  udg::check_position(u, destination, inverse_range_);
  remove_from_cell(u);
  points_[u] = destination;
  add_to_cell(u);
  scan_row(u);
  rewrite_row(u);
}

void IncrementalUdg::set_active(NodeId u, bool active) {
  active_[u] = active;
  scan_row(u);
  rewrite_row(u);
}

graph::Graph IncrementalUdg::materialize() const {
  std::vector<std::uint32_t> offsets(rows_.size() + 1, 0);
  for (std::size_t u = 0; u < rows_.size(); ++u) {
    offsets[u + 1] = offsets[u] + static_cast<std::uint32_t>(rows_[u].size());
  }
  std::vector<NodeId> adjacency;
  adjacency.reserve(offsets.back());
  for (const auto& row : rows_) {
    adjacency.insert(adjacency.end(), row.begin(), row.end());
  }
  return {std::move(offsets), std::move(adjacency)};
}

}  // namespace wcds::maintenance
