// The pre-incremental DynamicWcds, kept verbatim in logic as the oracle for
// maintenance_differential_test (see maintenance_reference.h).  Recorder
// hooks and the per-event audit tripwire are left out: neither changes
// state.
#include "maintenance_reference.h"

#include <algorithm>
#include <queue>
#include <set>

#include "check/check.h"
#include "graph/bfs.h"
#include "graph/subgraph.h"
#include "udg/udg.h"

namespace wcds::testing {

using maintenance::Audit;
using maintenance::RepairReport;
namespace {

// BFS truncated at `radius` hops; returns visited nodes (center included).
std::vector<NodeId> truncated_ball(const graph::Graph& g, NodeId center,
                                   HopCount radius) {
  std::vector<HopCount> dist(g.node_count(), kUnreachable);
  std::vector<NodeId> members;
  std::queue<NodeId> frontier;
  dist[center] = 0;
  frontier.push(center);
  members.push_back(center);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    if (dist[u] == radius) continue;
    for (NodeId v : g.neighbors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        members.push_back(v);
        frontier.push(v);
      }
    }
  }
  return members;
}

}  // namespace

ReferenceDynamicWcds::ReferenceDynamicWcds(std::vector<geom::Point> points,
                                           double range)
    : points_(std::move(points)),
      active_(points_.size(), true),
      range_(range) {
  WCDS_REQUIRE(range_ > 0.0, "DynamicWcds: range <= 0");
  rebuild_graph();
  mis_.assign(points_.size(), false);
  // Initial MIS: greedy lowest-ID-first (Algorithm II's ranking).
  std::vector<bool> removed(points_.size(), false);
  for (NodeId u = 0; u < points_.size(); ++u) {
    if (removed[u]) continue;
    mis_[u] = true;
    removed[u] = true;
    for (NodeId v : graph_.neighbors(u)) removed[v] = true;
  }
  // Initial bridges for every 3-hop MIS pair.
  std::vector<NodeId> all_mis;
  for (NodeId u = 0; u < points_.size(); ++u) {
    if (mis_[u]) all_mis.push_back(u);
  }
  rebridge(all_mis);
}

void ReferenceDynamicWcds::rebuild_graph() {
  // Inactive nodes are placed but radio-silent: build over active positions
  // and keep ids stable by masking edges after the fact.
  graph::GraphBuilder builder(points_.size());
  const auto full = udg::build_udg(points_, range_);
  for (NodeId u = 0; u < points_.size(); ++u) {
    if (!active_[u]) continue;
    for (NodeId v : full.neighbors(u)) {
      if (u < v && active_[v]) builder.add_edge(u, v);
    }
  }
  graph_ = std::move(builder).build();
}

std::vector<NodeId> ReferenceDynamicWcds::dominators() const {
  std::set<NodeId> set;
  for (NodeId u = 0; u < points_.size(); ++u) {
    if (mis_[u]) set.insert(u);
  }
  for (const auto& [pair, v] : bridges_) set.insert(v);
  return {set.begin(), set.end()};
}

std::vector<NodeId> ReferenceDynamicWcds::three_hop_ball(NodeId center) const {
  return truncated_ball(graph_, center, 3);
}

bool ReferenceDynamicWcds::bridge_valid(NodeId a, NodeId b, NodeId v) const {
  // v must be active, adjacent to one endpoint and two hops from the other
  // (entries may be recorded from either endpoint of the pair).
  if (!active_[v] || !active_[a] || !active_[b]) return false;
  if (!mis_[a] || !mis_[b]) return false;
  const auto links = [&](NodeId near, NodeId far) {
    if (!graph_.has_edge(near, v)) return false;
    for (NodeId x : graph_.neighbors(v)) {
      if (graph_.has_edge(x, far)) return true;
    }
    return false;
  };
  return links(a, b) || links(b, a);
}

std::size_t ReferenceDynamicWcds::rebridge(const std::vector<NodeId>& mis_nodes) {
  std::size_t changed = 0;
  std::set<NodeId> touched(mis_nodes.begin(), mis_nodes.end());

  // Drop entries with a touched endpoint or an invalid path.
  for (auto it = bridges_.begin(); it != bridges_.end();) {
    const auto [a, b] = it->first;
    const bool endpoint_touched = touched.count(a) > 0 || touched.count(b) > 0;
    if (endpoint_touched || !bridge_valid(a, b, it->second)) {
      it = bridges_.erase(it);
      ++changed;
    } else {
      ++it;
    }
  }

  // Recompute pairs around each touched MIS node.
  for (NodeId a : mis_nodes) {
    if (!mis_[a] || !active_[a]) continue;
    // Hop distances from a, truncated at 3.
    std::vector<HopCount> dist(graph_.node_count(), kUnreachable);
    std::queue<NodeId> frontier;
    dist[a] = 0;
    frontier.push(a);
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop();
      if (dist[u] == 3) continue;
      for (NodeId v : graph_.neighbors(u)) {
        if (dist[v] == kUnreachable) {
          dist[v] = dist[u] + 1;
          frontier.push(v);
        }
      }
    }
    for (NodeId b = 0; b < graph_.node_count(); ++b) {
      if (!mis_[b] || b == a || dist[b] != 3) continue;
      const auto key = std::minmax(a, b);
      if (bridges_.count({key.first, key.second}) > 0) continue;
      // Lexicographically smallest (v, x) path a-v-x-b.
      NodeId best_v = kInvalidNode;
      for (NodeId v : graph_.neighbors(a)) {
        bool reaches = false;
        for (NodeId x : graph_.neighbors(v)) {
          if (graph_.has_edge(x, b)) {
            reaches = true;
            break;
          }
        }
        if (reaches) {
          best_v = v;
          break;  // neighbors() ascending: first hit is the smallest v
        }
      }
      if (best_v != kInvalidNode) {
        bridges_.emplace(std::pair{key.first, key.second}, best_v);
        ++changed;
      }
    }
  }
  return changed;
}

RepairReport ReferenceDynamicWcds::repair(const std::vector<NodeId>& seeds,
                                 std::vector<NodeId> old_region) {
  RepairReport report;

  // Region: 3-hop balls (new graph) around the seeds, plus the pre-event
  // ball (coverage lost by the event is confined there).
  std::set<NodeId> region(old_region.begin(), old_region.end());
  for (NodeId s : seeds) {
    for (NodeId u : three_hop_ball(s)) region.insert(u);
  }

  // 1. Resolve MIS conflicts (adjacent dominators): demote the higher ID.
  std::vector<NodeId> demoted;
  bool conflict = true;
  while (conflict) {
    conflict = false;
    for (NodeId u : region) {
      if (!mis_[u] || !active_[u]) continue;
      for (NodeId v : graph_.neighbors(u)) {
        if (mis_[v] && v > u) {
          mis_[v] = false;
          demoted.push_back(v);
          conflict = true;
        }
      }
    }
  }
  // An inactive node cannot stay a dominator.
  for (NodeId u : region) {
    if (mis_[u] && !active_[u]) {
      mis_[u] = false;
      demoted.push_back(u);
    }
  }
  report.demoted = demoted.size();

  // 2. Restore maximality: any active node in the blast radius without a
  // dominator in its closed neighborhood is promoted, ascending by ID (the
  // promotion keeps independence because the candidate has no MIS neighbor).
  std::set<NodeId> coverage_candidates(region.begin(), region.end());
  for (NodeId d : demoted) {
    coverage_candidates.insert(d);
    for (NodeId v : graph_.neighbors(d)) coverage_candidates.insert(v);
  }
  std::vector<NodeId> promoted;
  for (NodeId u : coverage_candidates) {  // std::set iterates ascending
    if (!active_[u] || mis_[u]) continue;
    const auto row = graph_.neighbors(u);
    const bool dominated = std::any_of(row.begin(), row.end(),
                                       [&](NodeId v) { return mis_[v]; });
    if (!dominated) {
      mis_[u] = true;
      promoted.push_back(u);
    }
  }
  report.promoted = promoted.size();

  // 3. Re-derive bridges for every MIS node within 3 hops of anything that
  // changed (seeds, demotions, promotions).
  std::set<NodeId> changed(seeds.begin(), seeds.end());
  for (NodeId d : demoted) changed.insert(d);
  for (NodeId p : promoted) changed.insert(p);
  std::set<NodeId> affected_mis;
  for (NodeId c : changed) {
    for (NodeId u : three_hop_ball(c)) {
      if (mis_[u]) affected_mis.insert(u);
    }
  }
  for (NodeId u : old_region) {
    if (mis_[u]) affected_mis.insert(u);
  }
  for (NodeId d : demoted) affected_mis.insert(d);  // force entry erasure
  report.bridges_changed =
      rebridge({affected_mis.begin(), affected_mis.end()});

  report.region_size = region.size();
  return report;
}

RepairReport ReferenceDynamicWcds::move_node(NodeId u, const geom::Point& destination) {
  WCDS_REQUIRE_BOUNDS(u < points_.size(), "move_node: bad id " << u);
  const auto old_region = active_[u] ? three_hop_ball(u) : std::vector<NodeId>{u};
  points_[u] = destination;
  rebuild_graph();
  const RepairReport report = repair({u}, old_region);
  return report;
}

RepairReport ReferenceDynamicWcds::deactivate(NodeId u) {
  WCDS_REQUIRE_BOUNDS(u < points_.size(), "deactivate: bad id " << u);
  if (!active_[u]) return {};
  const auto old_region = three_hop_ball(u);
  active_[u] = false;
  rebuild_graph();
  const RepairReport report = repair({u}, old_region);
  return report;
}

RepairReport ReferenceDynamicWcds::activate(NodeId u) {
  WCDS_REQUIRE_BOUNDS(u < points_.size(), "activate: bad id " << u);
  if (active_[u]) return {};
  active_[u] = true;
  rebuild_graph();
  const RepairReport report = repair({u}, {u});
  return report;
}

RepairReport ReferenceDynamicWcds::watchdog() {
  if (audit().ok()) return {};
  // Recovery mode: seed the repair everywhere.  Costlier than the 3-hop
  // event path, but only reached when the maintained state was perturbed
  // outside the event interface.
  std::vector<NodeId> everyone(points_.size());
  for (NodeId u = 0; u < points_.size(); ++u) everyone[u] = u;
  const RepairReport report = repair(everyone, everyone);
  return report;
}

Audit ReferenceDynamicWcds::audit() const {
  Audit audit;
  const std::size_t n = points_.size();

  // Independence + maximality over active nodes.
  audit.mis_independent = true;
  audit.mis_maximal = true;
  for (NodeId u = 0; u < n; ++u) {
    if (!active_[u]) continue;
    if (mis_[u]) {
      for (NodeId v : graph_.neighbors(u)) {
        if (mis_[v]) audit.mis_independent = false;
      }
    } else {
      const auto row = graph_.neighbors(u);
      if (std::none_of(row.begin(), row.end(),
                       [&](NodeId v) { return mis_[v]; })) {
        audit.mis_maximal = false;
      }
    }
  }

  // Every 3-hop MIS pair bridged.
  audit.bridges_complete = true;
  for (NodeId a = 0; a < n; ++a) {
    if (!mis_[a] || !active_[a]) continue;
    const auto dist = graph::bfs_distances(graph_, a);
    for (NodeId b = a + 1; b < n; ++b) {
      if (!mis_[b] || !active_[b] || dist[b] != 3) continue;
      const auto it = bridges_.find({a, b});
      if (it == bridges_.end() || !bridge_valid(a, b, it->second)) {
        audit.bridges_complete = false;
      }
    }
  }

  // Weak connectivity of S + C per connected component (judged over active
  // nodes; singleton components are trivially fine).
  std::vector<bool> dom_mask(n, false);
  for (NodeId d : dominators()) dom_mask[d] = true;
  const auto weak = graph::weakly_induced_subgraph(graph_, dom_mask);
  const auto comp_g = graph::connected_components(graph_);
  const auto comp_w = graph::connected_components(weak);
  audit.weakly_connected = true;
  // Two nodes in one G-component must share a weak component.
  std::vector<std::uint32_t> rep(comp_g.count, kInvalidNode);
  for (NodeId u = 0; u < n; ++u) {
    if (!active_[u]) continue;
    auto& r = rep[comp_g.label[u]];
    if (r == kInvalidNode) {
      r = comp_w.label[u];
    } else if (r != comp_w.label[u]) {
      audit.weakly_connected = false;
    }
  }
  return audit;
}

}  // namespace wcds::testing
