#include "maintenance/incremental_udg.h"

#include <algorithm>

#include "check/check.h"
#include "udg/udg.h"

namespace wcds::maintenance {

namespace {

// The bits of v spread to the even bit positions of the result.
std::uint64_t spread_bits(std::uint32_t v) {
  std::uint64_t x = v;
  x = (x | (x << 16)) & 0x0000FFFF0000FFFFULL;
  x = (x | (x << 8)) & 0x00FF00FF00FF00FFULL;
  x = (x | (x << 4)) & 0x0F0F0F0F0F0F0F0FULL;
  x = (x | (x << 2)) & 0x3333333333333333ULL;
  x = (x | (x << 1)) & 0x5555555555555555ULL;
  return x;
}

// Where `name` sits, or would sit, in a row of slots ascending by name.
template <class It>
It name_bound(It first, It last, NodeId name,
              const std::vector<NodeId>& name_of) {
  return std::lower_bound(
      first, last, name,
      [&](NodeId slot, NodeId key) { return name_of[slot] < key; });
}

// Room for this many more neighbors in every row at construction, so that a
// row rarely outgrows its first block.
constexpr std::size_t kRowSpare = 8;

// The names in slot order: Morton order of the grid cells' offsets from the
// lowest cell, ties by name.  Offsets are taken modulo 2^32, which is exact
// for int32 indices.  Validates range and positions first.
std::vector<NodeId> slot_order(const std::vector<geom::Point>& points,
                               double range) {
  WCDS_REQUIRE(range > 0.0, "DynamicWcds: range <= 0");
  const double inverse_range = 1.0 / range;
  const std::size_t n = points.size();
  std::vector<std::pair<std::int32_t, std::int32_t>> cells(n);
  for (NodeId u = 0; u < n; ++u) {
    udg::check_position(u, points[u], inverse_range);
    cells[u] = {udg::cell_index(points[u].x, inverse_range),
                udg::cell_index(points[u].y, inverse_range)};
  }
  auto [min_x, min_y] = n == 0 ? std::pair{0, 0} : cells.front();
  for (const auto& [cx, cy] : cells) {
    min_x = std::min(min_x, cx);
    min_y = std::min(min_y, cy);
  }
  const auto offset = [](std::int32_t c, std::int32_t low) {
    return static_cast<std::uint32_t>(c) - static_cast<std::uint32_t>(low);
  };
  std::vector<std::pair<std::uint64_t, NodeId>> keys(n);
  for (NodeId u = 0; u < n; ++u) {
    const auto [cx, cy] = cells[u];
    keys[u] = {spread_bits(offset(cx, min_x)) |
                   (spread_bits(offset(cy, min_y)) << 1),
               u};
  }
  std::sort(keys.begin(), keys.end());
  std::vector<NodeId> order(n);
  for (NodeId s = 0; s < n; ++s) order[s] = keys[s].second;
  return order;
}

// The point of node name_of[s] at index s.
std::vector<geom::Point> by_slot(const std::vector<geom::Point>& points,
                                 const std::vector<NodeId>& name_of) {
  std::vector<geom::Point> placed(points.size());
  for (NodeId s = 0; s < name_of.size(); ++s) placed[s] = points[name_of[s]];
  return placed;
}

}  // namespace

IncrementalUdg::IncrementalUdg(std::vector<geom::Point> points, double range)
    : range_(range),
      inverse_range_(1.0 / range),
      name_of_(slot_order(points, range)),
      slot_of_(points.size()),
      points_(by_slot(points, name_of_)),
      active_(points.size(), true),
      rows_(points.size()) {
  const auto n = static_cast<NodeId>(name_of_.size());
  for (NodeId s = 0; s < n; ++s) {
    slot_of_[name_of_[s]] = s;
    add_to_cell(s);
  }
  // Every node is active, so s's row holds build_udg's neighbors of s over
  // the points by slot: the same cells as scan_row, and within_range is
  // symmetric in its arguments.  Slot order keeps build_udg's passes local.
  // Appending each slot to its neighbors' rows in ascending name order
  // leaves every row ascending by name.
  const graph::Graph g = udg::build_udg(points_, range);
  for (NodeId s = 0; s < n; ++s) rows_[s].reserve(g.degree(s) + kRowSpare);
  for (NodeId name = 0; name < n; ++name) {
    const NodeId t = slot_of_[name];
    for (const NodeId s : g.neighbors(t)) rows_[s].push_back(t);
  }
}

bool IncrementalUdg::has_edge(NodeId s, NodeId t) const {
  const auto& row = rows_[s];
  const auto it = name_bound(row.begin(), row.end(), name_of_[t], name_of_);
  return it != row.end() && *it == t;
}

IncrementalUdg::Cell IncrementalUdg::cell_of(const geom::Point& p) const {
  return {udg::cell_index(p.x, inverse_range_),
          udg::cell_index(p.y, inverse_range_)};
}

void IncrementalUdg::add_to_cell(NodeId s) {
  const auto [cx, cy] = cell_of(points_[s]);
  grid_[udg::cell_key(cx, cy)].push_back(s);
}

void IncrementalUdg::remove_from_cell(NodeId s) {
  const auto [cx, cy] = cell_of(points_[s]);
  const auto it = grid_.find(udg::cell_key(cx, cy));
  auto& members = it->second;
  *std::find(members.begin(), members.end(), s) = members.back();
  members.pop_back();  // an emptied cell keeps its entry for the next visit
}

void IncrementalUdg::scan_row(NodeId s) {
  row_.clear();
  if (!active_[s]) return;
  const auto [cx, cy] = cell_of(points_[s]);
  for (std::int32_t dx = -1; dx <= 1; ++dx) {
    for (std::int32_t dy = -1; dy <= 1; ++dy) {
      const auto it = grid_.find(udg::cell_key(cx + dx, cy + dy));
      if (it == grid_.end()) continue;
      for (const NodeId t : it->second) {
        if (t != s && active_[t] &&
            geom::within_range(points_[s], points_[t], range_)) {
          row_.push_back(t);
        }
      }
    }
  }
  std::sort(row_.begin(), row_.end(), [&](NodeId p, NodeId q) {
    return name_of_[p] < name_of_[q];
  });
}

void IncrementalUdg::rewrite_row(NodeId s) {
  auto& old_row = rows_[s];
  const NodeId name = name_of_[s];
  // Merge walk over the two name-sorted rows: partners only in the old row
  // lose s, partners only in the new one gain it.
  auto o = old_row.begin();
  auto r = row_.begin();
  while (o != old_row.end() || r != row_.end()) {
    if (r == row_.end() ||
        (o != old_row.end() && name_of_[*o] < name_of_[*r])) {
      auto& partner = rows_[*o];
      partner.erase(name_bound(partner.begin(), partner.end(), name, name_of_));
      ++o;
    } else if (o == old_row.end() || name_of_[*r] < name_of_[*o]) {
      auto& partner = rows_[*r];
      partner.insert(
          name_bound(partner.begin(), partner.end(), name, name_of_), s);
      ++r;
    } else {
      ++o;
      ++r;
    }
  }
  old_row.assign(row_.begin(), row_.end());
}

void IncrementalUdg::relocate(NodeId s, const geom::Point& destination) {
  udg::check_position(name_of_[s], destination, inverse_range_);
  remove_from_cell(s);
  points_[s] = destination;
  add_to_cell(s);
  scan_row(s);
  rewrite_row(s);
}

void IncrementalUdg::set_active(NodeId s, bool active) {
  active_[s] = active;
  scan_row(s);
  rewrite_row(s);
}

graph::Graph IncrementalUdg::materialize() const {
  // Rows are read in slot order, where they sit, and each is written to its
  // name's place.
  const std::size_t n = rows_.size();
  std::vector<std::uint32_t> offsets(n + 1, 0);
  for (NodeId s = 0; s < n; ++s) {
    offsets[name_of_[s] + 1] = static_cast<std::uint32_t>(rows_[s].size());
  }
  for (NodeId u = 0; u < n; ++u) offsets[u + 1] += offsets[u];
  std::vector<NodeId> adjacency(offsets.back());
  for (NodeId s = 0; s < n; ++s) {
    NodeId* out = adjacency.data() + offsets[name_of_[s]];
    for (const NodeId t : rows_[s]) *out++ = name_of_[t];
  }
  return {std::move(offsets), std::move(adjacency)};
}

std::vector<bool> IncrementalUdg::active_mask() const {
  std::vector<bool> mask(active_.size());
  for (NodeId s = 0; s < active_.size(); ++s) mask[name_of_[s]] = active_[s];
  return mask;
}

}  // namespace wcds::maintenance
