#include "maintenance/dynamic_wcds.h"

#include <algorithm>
#include <set>

#include "check/audit.h"
#include "check/check.h"
#include "graph/bfs.h"
#include "graph/subgraph.h"
#include "wcds/wcds_result.h"

namespace wcds::maintenance {

DynamicWcds::DynamicWcds(std::vector<geom::Point> points, double range)
    : graph_(std::move(points), range),
      mis_(graph_.node_count(), false),
      bridges_(graph_.node_count()),
      via_count_(graph_.node_count(), 0),
      recorder_(obs::global_recorder()) {
  obs::PhaseTimer build_timer(recorder_, "maintenance/initial_build");
  const std::size_t n = graph_.node_count();
  // Initial MIS: greedy lowest-ID-first (Algorithm II's ranking).
  std::vector<bool> removed(n, false);
  for (NodeId u = 0; u < n; ++u) {
    if (removed[u]) continue;
    mis_[u] = true;
    removed[u] = true;
    for (NodeId v : graph_.neighbors(u)) removed[v] = true;
  }
  // Initial bridges for every 3-hop MIS pair.
  std::vector<NodeId> all_mis;
  for (NodeId u = 0; u < n; ++u) {
    if (mis_[u]) all_mis.push_back(u);
  }
  rebridge(all_mis);
  maybe_audit("construction");
}

std::vector<NodeId> DynamicWcds::dominators() const {
  std::vector<NodeId> result;
  for (NodeId u = 0; u < node_count(); ++u) {
    if (mis_[u] || via_count_[u] > 0) result.push_back(u);
  }
  return result;
}

std::vector<NodeId> DynamicWcds::three_hop_ball(NodeId center) {
  const auto members = bfs_.run(graph_, center, 3);
  return {members.begin(), members.end()};
}

std::map<std::pair<NodeId, NodeId>, NodeId> DynamicWcds::bridges() const {
  std::map<std::pair<NodeId, NodeId>, NodeId> result;
  for (NodeId u = 0; u < node_count(); ++u) {
    for (const Bridge& bridge : bridges_[u]) {
      if (bridge.a == u) result.emplace(std::pair{u, bridge.b}, bridge.via);
    }
  }
  return result;
}

const DynamicWcds::Bridge* DynamicWcds::find_bridge(NodeId a, NodeId b) const {
  for (const Bridge& bridge : bridges_[a]) {
    if (bridge.a == a && bridge.b == b) return &bridge;
  }
  return nullptr;
}

void DynamicWcds::add_bridge(const Bridge& bridge) {
  bridges_[bridge.a].push_back(bridge);
  bridges_[bridge.b].push_back(bridge);
  ++via_count_[bridge.via];
}

void DynamicWcds::erase_bridge(Bridge bridge) {
  for (const NodeId endpoint : {bridge.a, bridge.b}) {
    auto& list = bridges_[endpoint];
    *std::find_if(list.begin(), list.end(), [&](const Bridge& x) {
      return x.a == bridge.a && x.b == bridge.b;
    }) = list.back();
    list.pop_back();
  }
  --via_count_[bridge.via];
}

bool DynamicWcds::bridge_valid(NodeId a, NodeId b, NodeId v) const {
  // v must be active, adjacent to one endpoint and two hops from the other
  // (entries may be recorded from either endpoint of the pair).
  if (!graph_.is_active(v) || !graph_.is_active(a) || !graph_.is_active(b)) {
    return false;
  }
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

std::size_t DynamicWcds::rebridge(const std::vector<NodeId>& mis_nodes) {
  std::size_t changed = 0;

  // Drop every bridge with an endpoint in `mis_nodes`.  No other bridge can
  // have become invalid since the previous rebridge, which left all valid:
  // a demoted endpoint is in `mis_nodes` and a promoted node was no
  // endpoint.  An edge or on/off change at the event node u breaks a
  // bridge only if u is on its 3-hop path; then both endpoints lie within
  // 3 hops of u, in the old or the new ball, and repair() puts the MIS
  // nodes of both balls in `mis_nodes`.
  for (NodeId a : mis_nodes) {
    while (!bridges_[a].empty()) {
      erase_bridge(bridges_[a].back());
      ++changed;
    }
  }

  // Recompute pairs around each touched MIS node.
  for (NodeId a : mis_nodes) {
    if (!mis_[a] || !graph_.is_active(a)) continue;
    for (NodeId b : bfs_.run(graph_, a, 3)) {
      if (!mis_[b] || b == a || bfs_.distance(b) != 3) continue;
      const auto key = std::minmax(a, b);
      if (find_bridge(key.first, key.second) != nullptr) continue;
      // The smallest v on a 3-hop path a-v-x-b.  Every x adjacent to b and
      // to a neighbor of a lies 2 hops from a, and the v's are exactly the
      // 1-hop nodes next to such an x, so scan from b's side against the
      // distances of the current ball instead of probing rows of a's.
      NodeId best_v = kInvalidNode;
      for (NodeId x : graph_.neighbors(b)) {
        if (bfs_.distance(x) != 2) continue;
        for (NodeId v : graph_.neighbors(x)) {
          if (bfs_.distance(v) == 1) {
            best_v = std::min(best_v, v);
            break;  // rows ascend: the first hit is x's smallest v
          }
        }
      }
      if (best_v != kInvalidNode) {
        add_bridge({key.first, key.second, best_v});
        ++changed;
      }
    }
  }
  return changed;
}

RepairReport DynamicWcds::repair(const std::vector<NodeId>& seeds,
                                 const std::vector<NodeId>& old_region) {
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
      if (!mis_[u] || !graph_.is_active(u)) continue;
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
    if (mis_[u] && !graph_.is_active(u)) {
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
    if (!graph_.is_active(u) || mis_[u]) continue;
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
  // changed (seeds, demotions, promotions), or in the pre-event ball.  The
  // region already holds the seeds' balls and the pre-event ball.
  std::set<NodeId> affected_mis;
  for (NodeId u : region) {
    if (mis_[u]) affected_mis.insert(u);
  }
  std::set<NodeId> changed(demoted.begin(), demoted.end());
  changed.insert(promoted.begin(), promoted.end());
  for (NodeId s : seeds) changed.erase(s);
  for (NodeId c : changed) {
    for (NodeId u : three_hop_ball(c)) {
      if (mis_[u]) affected_mis.insert(u);
    }
  }
  for (NodeId d : demoted) affected_mis.insert(d);  // force entry erasure
  report.bridges_changed =
      rebridge({affected_mis.begin(), affected_mis.end()});

  report.region_size = region.size();
  return report;
}

RepairReport DynamicWcds::move_node(NodeId u, const geom::Point& destination) {
  WCDS_REQUIRE_BOUNDS(u < node_count(), "move_node: bad id " << u);
  obs::PhaseTimer event_timer(recorder_, "maintenance/move_node");
  const auto old_region =
      is_active(u) ? three_hop_ball(u) : std::vector<NodeId>{u};
  graph_.relocate(u, destination);
  const RepairReport report = repair({u}, old_region);
  event_timer.stop();
  record_event("move_node", report);
  maybe_audit("move_node");
  return report;
}

RepairReport DynamicWcds::deactivate(NodeId u) {
  WCDS_REQUIRE_BOUNDS(u < node_count(), "deactivate: bad id " << u);
  if (!is_active(u)) return {};
  obs::PhaseTimer event_timer(recorder_, "maintenance/deactivate");
  const auto old_region = three_hop_ball(u);
  graph_.set_active(u, false);
  const RepairReport report = repair({u}, old_region);
  event_timer.stop();
  record_event("deactivate", report);
  maybe_audit("deactivate");
  return report;
}

RepairReport DynamicWcds::activate(NodeId u) {
  WCDS_REQUIRE_BOUNDS(u < node_count(), "activate: bad id " << u);
  if (is_active(u)) return {};
  obs::PhaseTimer event_timer(recorder_, "maintenance/activate");
  graph_.set_active(u, true);
  const RepairReport report = repair({u}, {u});
  event_timer.stop();
  record_event("activate", report);
  maybe_audit("activate");
  return report;
}

RepairReport DynamicWcds::watchdog() {
  if (audit().ok()) return {};
  obs::PhaseTimer event_timer(recorder_, "maintenance/watchdog");
  // Recovery mode: seed the repair everywhere.  Costlier than the 3-hop
  // event path, but only reached when the maintained state was perturbed
  // outside the event interface.
  std::vector<NodeId> everyone(node_count());
  for (NodeId u = 0; u < node_count(); ++u) everyone[u] = u;
  const RepairReport report = repair(everyone, everyone);
  event_timer.stop();
  record_event("watchdog", report);
  maybe_audit("watchdog");
  return report;
}

void DynamicWcds::record_event(const char* event,
                               const RepairReport& report) const {
  if (recorder_ == nullptr) return;
  auto& metrics = recorder_->metrics();
  metrics.add("maintenance/events");
  metrics.add(std::string("maintenance/events/") + event);
  metrics.add("maintenance/demoted", report.demoted);
  metrics.add("maintenance/promoted", report.promoted);
  metrics.add("maintenance/bridges_changed", report.bridges_changed);
  // The 3-hop locality witness: region sizes stay flat as n grows.
  metrics.observe("maintenance/region_size",
                  static_cast<double>(report.region_size));
}

void DynamicWcds::maybe_audit(const char* event) const {
  if (!check::audits_enabled()) return;
  // Snapshot protocol state as a WcdsResult over the active UDG.
  const std::size_t n = node_count();
  core::WcdsResult result;
  result.mask.assign(n, false);
  result.color.assign(n, core::NodeColor::kGray);
  result.dominators = dominators();
  for (NodeId u : result.dominators) {
    result.mask[u] = true;
    result.color[u] = core::NodeColor::kBlack;
  }
  for (NodeId u = 0; u < n; ++u) {
    if (mis_[u]) result.mis_dominators.push_back(u);
  }
  for (NodeId u : result.dominators) {
    if (!mis_[u]) result.additional_dominators.push_back(u);
  }
  check::AuditOptions options;
  options.unit_disk = true;  // the active graph is a UDG by construction
  options.active = &graph_.active_mask();
  check::audit_invariants(graph_.materialize(), result, options);
  // The maintenance-specific contract on top of the paper invariants: every
  // 3-hop MIS pair holds a valid additional-dominator bridge.
  const Audit state = audit();
  WCDS_CHECK(state.bridges_complete,
             "Section 4.2 (maintenance): unbridged 3-hop MIS pair after "
                 << event);
}

Audit DynamicWcds::audit() const {
  Audit audit;
  const std::size_t n = node_count();

  // Independence + maximality over active nodes.
  audit.mis_independent = true;
  audit.mis_maximal = true;
  for (NodeId u = 0; u < n; ++u) {
    if (!is_active(u)) continue;
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
  graph::LocalBfs bfs;
  for (NodeId a = 0; a < n; ++a) {
    if (!mis_[a] || !is_active(a)) continue;
    for (NodeId b : bfs.run(graph_, a, 3)) {
      if (b <= a || !mis_[b] || bfs.distance(b) != 3) continue;
      const Bridge* bridge = find_bridge(a, b);
      if (bridge == nullptr || !bridge_valid(a, b, bridge->via)) {
        audit.bridges_complete = false;
      }
    }
  }

  // Weak connectivity of S + C per connected component (judged over active
  // nodes; singleton components are trivially fine).
  std::vector<bool> dom_mask(n, false);
  for (NodeId d : dominators()) dom_mask[d] = true;
  const graph::Graph g = graph_.materialize();
  const auto weak = graph::weakly_induced_subgraph(g, dom_mask);
  const auto comp_g = graph::connected_components(g);
  const auto comp_w = graph::connected_components(weak);
  audit.weakly_connected = true;
  // Two nodes in one G-component must share a weak component.
  std::vector<std::uint32_t> rep(comp_g.count, kInvalidNode);
  for (NodeId u = 0; u < n; ++u) {
    if (!is_active(u)) continue;
    auto& r = rep[comp_g.label[u]];
    if (r == kInvalidNode) {
      r = comp_w.label[u];
    } else if (r != comp_w.label[u]) {
      audit.weakly_connected = false;
    }
  }
  return audit;
}

}  // namespace wcds::maintenance
