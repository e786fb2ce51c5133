#include "maintenance/dynamic_wcds.h"

#include <algorithm>
#include <span>

#include "check/audit.h"
#include "check/check.h"
#include "mis/properties.h"
#include "wcds/wcds_result.h"

namespace wcds::maintenance {

namespace {

// Hops beyond the 3-hop balls: any pair sum involving it exceeds 3.
constexpr std::uint8_t kFar = 4;

// Mark flags.
constexpr std::uint8_t kRegion = 1;      // in region_
constexpr std::uint8_t kCandidate = 2;   // in candidates_ but not region_
constexpr std::uint8_t kAffected = 4;    // in affected_
constexpr std::uint8_t kOwnBall = 8;     // re-derives its bridges by a ball
constexpr std::uint8_t kPromoted = 16;   // promoted by this event

// Whether two ascending rows share an element.
bool rows_meet(std::span<const NodeId> x, std::span<const NodeId> y) {
  auto i = x.begin();
  auto j = y.begin();
  while (i != x.end() && j != y.end()) {
    if (*i < *j) {
      ++i;
    } else if (*j < *i) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace

DynamicWcds::DynamicWcds(std::vector<geom::Point> points, double range)
    : graph_(std::move(points), range),
      mis_(graph_.node_count(), false),
      bridges_(graph_.node_count()),
      via_count_(graph_.node_count(), 0),
      recorder_(obs::global_recorder()),
      marks_(graph_.node_count()) {
  obs::PhaseTimer build_timer(recorder_, "maintenance/initial_build");
  // With no dominator yet, the whole-network repair promotes greedily
  // lowest-ID-first (Algorithm II's ranking), then bridges every 3-hop MIS
  // pair.
  (void)repair(kInvalidNode);
  maybe_audit("construction");
}

std::vector<NodeId> DynamicWcds::dominators() const {
  std::vector<NodeId> result;
  for (NodeId u = 0; u < node_count(); ++u) {
    if (mis_[u] || via_count_[u] > 0) result.push_back(u);
  }
  return result;
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

DynamicWcds::Mark& DynamicWcds::mark(NodeId u) {
  Mark& m = marks_[u];
  if (m.epoch != epoch_) m = {epoch_, kFar, kFar, 0};
  return m;
}

DynamicWcds::Mark DynamicWcds::peek(NodeId u) const {
  const Mark& m = marks_[u];
  return m.epoch == epoch_ ? m : Mark{epoch_, kFar, kFar, 0};
}

void DynamicWcds::add_member(std::vector<NodeId>& list, NodeId u,
                             std::uint8_t flag) {
  Mark& m = mark(u);
  if ((m.flags & flag) != 0) return;
  m.flags |= flag;
  list.push_back(u);
}

void DynamicWcds::next_epoch() {
  if (++epoch_ == 0) {  // wrapped: no old mark may alias the epoch
    for (Mark& m : marks_) m.epoch = 0;
    epoch_ = 1;
  }
  region_.clear();
}

void DynamicWcds::begin_event(NodeId u) {
  next_epoch();
  for (const NodeId v : bfs_.run(graph_, u, 3)) {
    mark(v).d_old = static_cast<std::uint8_t>(bfs_.distance(v));
    add_member(region_, v, kRegion);
  }
}

NodeId DynamicWcds::row_via(NodeId a, NodeId b) const {
  const auto row_a = graph_.neighbors(a);
  const auto row_b = graph_.neighbors(b);
  if (rows_meet(row_a, row_b)) return kInvalidNode;
  for (const NodeId v : row_a) {  // ascending: the first hit is the smallest
    if (rows_meet(graph_.neighbors(v), row_b)) return v;
  }
  return kInvalidNode;
}

void DynamicWcds::bridge_pairs_by_ball(NodeId a, RepairReport& report) {
  const auto ball = bfs_.run(graph_, a, 3);
  report.searched += ball.size();
  for (const NodeId b : ball) {
    if (!mis_[b] || bfs_.distance(b) != 3) continue;
    const Mark partner = peek(b);
    if ((partner.flags & kAffected) != 0 && b < a) {
      // b derives the pair; without a ball of its own it learns of a here.
      if ((partner.flags & kOwnBall) == 0) {
        incoming_.push_back({b, a, kInvalidNode});
      }
      continue;
    }
    // The smallest v on a 3-hop path a-v-x-b.  Every x adjacent to b and
    // to a neighbor of a lies 2 hops from a, and the v's are exactly the
    // 1-hop nodes next to such an x, so scan from b's side against the
    // distances of the current ball instead of probing rows of a's.
    NodeId best_v = kInvalidNode;
    for (const NodeId x : graph_.neighbors(b)) {
      if (bfs_.distance(x) != 2) continue;
      for (const NodeId v : graph_.neighbors(x)) {
        if (bfs_.distance(v) == 1) {
          best_v = std::min(best_v, v);
          break;  // rows ascend: the first hit is x's smallest v
        }
      }
    }
    add_bridge({std::min(a, b), std::max(a, b), best_v});
    ++report.bridges_changed;
  }
}

void DynamicWcds::rebridge(NodeId u, RepairReport& report) {
  // Each 3-hop pair with an endpoint in affected_ is derived once, by its
  // smallest endpoint in affected_ (its only one, if the other is outside),
  // and its via is the smallest neighbor of that endpoint on a 3-hop path.
  //
  // No other bridge can have changed.  A pair's paths of at most 3 hops
  // change only if the event node u lies on one of them, in the old or the
  // new graph: d(a,u) + d(u,b) <= 3 (the pair is "touched").  Then both
  // endpoints lie in the old or the new 3-hop ball of u, so an endpoint
  // that is MIS is in affected_; a demoted endpoint is in affected_ too,
  // and a promoted node was no endpoint.
  //
  // Only u, promoted nodes and MIS nodes within 1 hop of u in either graph
  // search a fresh ball.  Every other affected MIS node a was MIS before
  // and has d(a,u) >= 2 in both graphs.  Each partner b it has now is
  //  * promoted, or u or a neighbor of u when the pair is touched in the
  //    new graph (d(u,b) <= 3 - d(a,u) <= 1): then b searched a ball,
  //    found a and handed it over through incoming_; or
  //  * a partner before the event: its new paths of <= 3 hops avoid u, so
  //    they existed before, and no old path was shorter: a common neighbor
  //    of a and b would be u (but d(a,u) >= 2) or a path that persists.
  // Before the erase, bridges_[a] lists exactly a's old partners, so that
  // snapshot plus incoming_ covers a's partners; each candidate is
  // confirmed 3 hops apart.  An untouched pair keeps its paths, so an old
  // via adjacent to a is still the smallest; any other pair re-derives its
  // via from a's row.  In whole-network mode (u == kInvalidNode) every MIS
  // node searches a ball.
  snapshot_.clear();
  incoming_.clear();
  for (const NodeId a : affected_) {
    if (!mis_[a] || !graph_.is_active(a)) continue;  // demoted: erase only
    Mark& m = mark(a);
    if (u == kInvalidNode || a == u || (m.flags & kPromoted) != 0 ||
        m.d_old <= 1 || m.d_new <= 1) {
      m.flags |= kOwnBall;
      continue;
    }
    for (const Bridge& bridge : bridges_[a]) {
      snapshot_.push_back(
          {a, bridge.a == a ? bridge.b : bridge.a, bridge.via});
    }
  }
  for (const NodeId a : affected_) {
    while (!bridges_[a].empty()) {
      erase_bridge(bridges_[a].back());
      ++report.bridges_changed;
    }
  }

  for (const NodeId a : affected_) {
    if ((peek(a).flags & kOwnBall) != 0) bridge_pairs_by_ball(a, report);
  }

  const auto derive = [&](NodeId a, NodeId b, NodeId old_via) {
    if (!mis_[b]) return;  // demoted
    if ((peek(b).flags & kAffected) != 0 && b < a) return;  // b derives it
    const auto [lo, hi] = std::minmax(a, b);
    if (find_bridge(lo, hi) != nullptr) return;  // in snapshot_ and incoming_
    const Mark ma = peek(a);
    const Mark mb = peek(b);
    const bool touched = ma.d_old + mb.d_old <= 3 || ma.d_new + mb.d_new <= 3;
    const NodeId via = !touched && old_via != kInvalidNode &&
                               graph_.has_edge(a, old_via)
                           ? old_via
                           : row_via(a, b);
    if (via == kInvalidNode) return;  // no longer 3 hops apart
    add_bridge({lo, hi, via});
    ++report.bridges_changed;
  };
  for (const Partner& p : snapshot_) derive(p.a, p.b, p.via);
  for (const Partner& p : incoming_) derive(p.a, p.b, kInvalidNode);
}

RepairReport DynamicWcds::repair(NodeId u) {
  RepairReport report;

  // Region: the 3-hop balls of u before (begin_event) and after the event;
  // coverage lost by the event is confined to the former.  The whole
  // network in whole-network mode.
  if (u == kInvalidNode) {
    next_epoch();
    for (NodeId v = 0; v < node_count(); ++v) add_member(region_, v, kRegion);
  } else {
    const auto ball = bfs_.run(graph_, u, 3);
    report.searched = region_.size() + ball.size();  // both event balls
    for (const NodeId v : ball) {
      mark(v).d_new = static_cast<std::uint8_t>(bfs_.distance(v));
      add_member(region_, v, kRegion);
    }
    std::sort(region_.begin(), region_.end());
  }

  // 1. Resolve MIS conflicts (adjacent dominators): demote the higher ID.
  demoted_.clear();
  bool conflict = true;
  while (conflict) {
    conflict = false;
    for (const NodeId v : region_) {
      if (!mis_[v] || !graph_.is_active(v)) continue;
      for (const NodeId w : graph_.neighbors(v)) {
        if (mis_[w] && w > v) {
          mis_[w] = false;
          demoted_.push_back(w);
          conflict = true;
        }
      }
    }
  }
  // An inactive node cannot stay a dominator.
  for (const NodeId v : region_) {
    if (mis_[v] && !graph_.is_active(v)) {
      mis_[v] = false;
      demoted_.push_back(v);
    }
  }
  report.demoted = demoted_.size();

  // 2. Restore maximality: any active node in the blast radius without a
  // dominator in its closed neighborhood is promoted, ascending by ID (the
  // promotion keeps independence because the candidate has no MIS neighbor).
  candidates_.assign(region_.begin(), region_.end());
  for (const NodeId d : demoted_) {
    if ((mark(d).flags & kRegion) == 0) add_member(candidates_, d, kCandidate);
    for (const NodeId v : graph_.neighbors(d)) {
      if ((mark(v).flags & kRegion) == 0) {
        add_member(candidates_, v, kCandidate);
      }
    }
  }
  if (candidates_.size() > region_.size()) {
    std::sort(candidates_.begin(), candidates_.end());
  }
  promoted_.clear();
  for (const NodeId v : candidates_) {
    if (!graph_.is_active(v) || mis_[v]) continue;
    const auto row = graph_.neighbors(v);
    const bool dominated = std::any_of(row.begin(), row.end(),
                                       [&](NodeId w) { return mis_[w]; });
    if (!dominated) {
      mis_[v] = true;
      promoted_.push_back(v);
      mark(v).flags |= kPromoted;
    }
  }
  report.promoted = promoted_.size();

  // 3. Re-derive bridges for every MIS node within 3 hops of anything that
  // changed (u, demotions, promotions), plus the demoted nodes (to drop
  // their bridges).  The region already holds u's balls.
  affected_.clear();
  for (const NodeId v : region_) {
    if (mis_[v]) add_member(affected_, v, kAffected);
  }
  if (u != kInvalidNode) {
    for (const auto* changed : {&demoted_, &promoted_}) {
      for (const NodeId c : *changed) {
        if (c == u) continue;
        const auto ball = bfs_.run(graph_, c, 3);
        report.searched += ball.size();
        for (const NodeId v : ball) {
          if (mis_[v]) add_member(affected_, v, kAffected);
        }
      }
    }
  }
  for (const NodeId d : demoted_) add_member(affected_, d, kAffected);
  std::sort(affected_.begin(), affected_.end());
  rebridge(u, report);

  report.region_size = region_.size();
  return report;
}

RepairReport DynamicWcds::move_node(NodeId u, const geom::Point& destination) {
  WCDS_REQUIRE_BOUNDS(u < node_count(), "move_node: bad id " << u);
  obs::PhaseTimer event_timer(recorder_, "maintenance/move_node");
  begin_event(u);
  graph_.relocate(u, destination);
  const RepairReport report = repair(u);
  event_timer.stop();
  record_event("move_node", report);
  maybe_audit("move_node");
  return report;
}

RepairReport DynamicWcds::deactivate(NodeId u) {
  WCDS_REQUIRE_BOUNDS(u < node_count(), "deactivate: bad id " << u);
  if (!is_active(u)) return {};
  obs::PhaseTimer event_timer(recorder_, "maintenance/deactivate");
  begin_event(u);
  graph_.set_active(u, false);
  const RepairReport report = repair(u);
  event_timer.stop();
  record_event("deactivate", report);
  maybe_audit("deactivate");
  return report;
}

RepairReport DynamicWcds::activate(NodeId u) {
  WCDS_REQUIRE_BOUNDS(u < node_count(), "activate: bad id " << u);
  if (is_active(u)) return {};
  obs::PhaseTimer event_timer(recorder_, "maintenance/activate");
  begin_event(u);  // an inactive node's ball is itself
  graph_.set_active(u, true);
  const RepairReport report = repair(u);
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
  const RepairReport report = repair(kInvalidNode);
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
  metrics.add("maintenance/searched", report.searched);
  // The 3-hop locality witness: region sizes stay flat as n grows.
  metrics.observe("maintenance/region_size",
                  static_cast<double>(report.region_size));
}

void DynamicWcds::maybe_audit(const char* event) const {
  if (!check::audits_enabled()) return;
  // Snapshot protocol state as a WcdsResult over the active UDG.
  core::WcdsResult result;
  result.mask.assign(node_count(), false);
  result.color.assign(node_count(), core::NodeColor::kGray);
  result.dominators = dominators();
  for (NodeId u : result.dominators) {
    result.mask[u] = true;
    result.color[u] = core::NodeColor::kBlack;
    (mis_[u] ? result.mis_dominators : result.additional_dominators)
        .push_back(u);
  }
  check::AuditOptions options;
  options.unit_disk = true;  // the active graph is a UDG by construction
  options.active = &graph_.active_mask();
  const graph::Graph g = graph_.materialize();
  check::audit_invariants(g, result, options);
  // The maintenance-specific contract on top of the paper invariants.
  WCDS_CHECK(audit(g).bridges_complete,
             "Section 4.2 (maintenance): unbridged 3-hop MIS pair after "
                 << event);
}

Audit DynamicWcds::audit(const graph::Graph& g) const {
  const std::vector<bool>& active = graph_.active_mask();
  std::vector<NodeId> mis_members;
  std::vector<bool> dominator(node_count());
  for (NodeId u = 0; u < node_count(); ++u) {
    if (mis_[u] && active[u]) mis_members.push_back(u);
    dominator[u] = mis_[u] || via_count_[u] > 0;
  }
  const check::WcdsSweep backbone = check::sweep_wcds(g, dominator, &active);
  bool bridged = true;  // every 3-hop MIS pair holds a valid bridge record
  const auto balls = mis::audit_mis_balls(
      g, mis_members, backbone.components,
      [&](NodeId a, NodeId b, HopCount hops) {
        if (hops != 3 || b < a) return;
        const Bridge* bridge = find_bridge(a, b);
        bridged = bridged && bridge != nullptr &&
                  bridge_valid(a, b, bridge->via);
      });
  return {.mis_independent = balls.adjacent == kInvalidNode,
          .mis_maximal =
              mis::first_undominated(g, mis_, &active) == kInvalidNode,
          .bridges_complete = bridged,
          .weakly_connected = backbone.unreached == kInvalidNode};
}

}  // namespace wcds::maintenance
