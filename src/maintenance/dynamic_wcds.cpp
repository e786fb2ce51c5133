#include "maintenance/dynamic_wcds.h"

#include <algorithm>
#include <utility>

#include "check/audit.h"
#include "check/check.h"
#include "mis/properties.h"
#include "wcds/algorithm2.h"
#include "wcds/wcds_result.h"

namespace wcds::maintenance {

namespace {

// Hops beyond the 3-hop balls: any pair sum involving it exceeds 3.
constexpr std::uint8_t kFar = 4;

// Mark flags.
constexpr std::uint8_t kRegion = 1;      // in region_
constexpr std::uint8_t kCandidate = 2;   // in candidates_
constexpr std::uint8_t kAffected = 4;    // in affected_
constexpr std::uint8_t kOwnBall = 8;     // re-derives its bridges by a ball
constexpr std::uint8_t kPromoted = 16;   // promoted by this event

}  // namespace

DynamicWcds::DynamicWcds(std::vector<geom::Point> points, double range)
    : graph_(std::move(points), range),
      mis_(graph_.node_count(), false),
      bridges_(graph_.node_count()),
      via_count_(graph_.node_count(), 0),
      recorder_(obs::global_recorder()),
      marks_(graph_.node_count()),
      near_b_(graph_.node_count(), 0) {
  obs::PhaseTimer build_timer(recorder_, "maintenance/initial_build");
  seed(graph_.materialize());
  maybe_audit("construction");
}

void DynamicWcds::seed(const graph::Graph& g) {
  obs::PhaseTimer seed_timer(recorder_, "maintenance/seed");
  core::Algorithm2Options options;
  options.selection = core::Algorithm2Options::Selection::kLexSmallestPair;
  const core::Algorithm2Output alg2 = core::algorithm2_components(g, options);
  // `g` is by name.  An inactive node is isolated in it, so the body makes
  // it an MIS node with no 3-hop entries; it stays out of mis_.  A forward
  // entry (u < dom) is the bridge (u, dom) through u's neighbor via1: the
  // smallest neighbor of u on a 3-hop path, the via the event path keeps.
  for (const NodeId u : alg2.result.mis_dominators) {
    const NodeId s = graph_.slot_of(u);
    mis_[s] = graph_.is_active(s);
  }
  for (NodeId u = 0; u < node_count(); ++u) {
    const NodeId s = graph_.slot_of(u);
    for (const core::ThreeHopEntry& e : alg2.lists.three_hop(u)) {
      if (u < e.dom) {
        add_bridge({s, graph_.slot_of(e.dom), graph_.slot_of(e.via1)});
      }
    }
  }
}

std::vector<NodeId> DynamicWcds::dominators() const {
  std::vector<NodeId> result;
  for (NodeId u = 0; u < node_count(); ++u) {
    const NodeId s = graph_.slot_of(u);
    if (mis_[s] || via_count_[s] > 0) result.push_back(u);
  }
  return result;
}

std::map<std::pair<NodeId, NodeId>, NodeId> DynamicWcds::bridges() const {
  std::map<std::pair<NodeId, NodeId>, NodeId> result;
  for (NodeId s = 0; s < node_count(); ++s) {
    for (const Bridge& bridge : bridges_[s]) {
      if (bridge.a == s) {
        result.emplace(std::pair{name(s), name(bridge.b)}, name(bridge.via));
      }
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

void DynamicWcds::erase_listing(NodeId endpoint, const Bridge& bridge) {
  auto& list = bridges_[endpoint];
  *std::find_if(list.begin(), list.end(), [&](const Bridge& x) {
    return x.a == bridge.a && x.b == bridge.b;
  }) = list.back();
  list.pop_back();
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

void DynamicWcds::begin_event(NodeId u) {
  if (++epoch_ == 0) {  // wrapped: no old mark may alias the epoch
    for (Mark& m : marks_) m.epoch = 0;
    epoch_ = 1;
  }
  region_.clear();
  for (const NodeId v : bfs_.run(graph_, u, 3)) {
    mark(v).d_old = static_cast<std::uint8_t>(bfs_.distance(v));
    add_member(region_, v, kRegion);
  }
}

NodeId DynamicWcds::row_via(NodeId a, NodeId b) {
  // Stamp N(b) once; then every membership test below is one array read.
  if (++near_b_epoch_ == 0) {  // wrapped: no old stamp may alias the epoch
    std::fill(near_b_.begin(), near_b_.end(), 0);
    near_b_epoch_ = 1;
  }
  for (const NodeId x : graph_.neighbors(b)) near_b_[x] = near_b_epoch_;
  const auto row_a = graph_.neighbors(a);
  for (const NodeId v : row_a) {
    if (near_b_[v] == near_b_epoch_) return kInvalidNode;  // common neighbor
  }
  for (const NodeId v : row_a) {  // ascending: the first hit is the smallest
    for (const NodeId x : graph_.neighbors(v)) {
      if (near_b_[x] == near_b_epoch_) return v;
    }
  }
  return kInvalidNode;
}

void DynamicWcds::bridge_pairs_by_ball(NodeId a, RepairReport& report) {
  const auto ball = bfs_.run(graph_, a, 3);
  report.searched += ball.size();
  for (const NodeId b : ball) {
    if (!mis_[b] || bfs_.distance(b) != 3) continue;
    const Mark partner = peek(b);
    if ((partner.flags & kAffected) != 0 && before(b, a)) {
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
          if (best_v == kInvalidNode || before(v, best_v)) best_v = v;
          break;  // rows ascend by name: the first hit is x's smallest v
        }
      }
    }
    add_bridge(before(a, b) ? Bridge{a, b, best_v} : Bridge{b, a, best_v});
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
  // via from a's row.
  snapshot_.clear();
  incoming_.clear();
  for (const NodeId a : affected_) {
    if (!mis_[a] || !graph_.is_active(a)) continue;  // demoted: erase only
    Mark& m = mark(a);
    if (a == u || (m.flags & kPromoted) != 0 || m.d_old <= 1 ||
        m.d_new <= 1) {
      m.flags |= kOwnBall;
      continue;
    }
    for (const Bridge& bridge : bridges_[a]) {
      snapshot_.push_back(
          {a, bridge.a == a ? bridge.b : bridge.a, bridge.via});
    }
  }
  // Drop every bridge with an endpoint in affected_.  One between two
  // affected nodes is counted once, at its endpoint a, and leaves with both
  // lists; only an unaffected partner's list is searched.
  for (const NodeId a : affected_) {
    for (const Bridge& bridge : bridges_[a]) {
      const NodeId partner = bridge.a == a ? bridge.b : bridge.a;
      if ((peek(partner).flags & kAffected) == 0) {
        erase_listing(partner, bridge);
      } else if (bridge.a != a) {
        continue;
      }
      --via_count_[bridge.via];
      ++report.bridges_changed;
    }
    bridges_[a].clear();
  }

  for (const NodeId a : affected_) {
    if ((peek(a).flags & kOwnBall) != 0) bridge_pairs_by_ball(a, report);
  }

  const auto derive = [&](NodeId a, NodeId b, NodeId old_via) {
    if (!mis_[b]) return;  // demoted
    // b derives it.
    if ((peek(b).flags & kAffected) != 0 && before(b, a)) return;
    const auto [lo, hi] = before(a, b) ? std::pair{a, b} : std::pair{b, a};
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

  // Region: the 3-hop balls of u before (begin_event) and after the event,
  // in no particular order; it feeds affected_ and region_size.
  const auto ball = bfs_.run(graph_, u, 3);
  report.searched = region_.size() + ball.size();  // both event balls
  for (const NodeId v : ball) {
    mark(v).d_new = static_cast<std::uint8_t>(bfs_.distance(v));
    add_member(region_, v, kRegion);
  }

  // The pre-event state passed the audit (an MIS of the old active graph),
  // and the event changed only the links at u.  So every adjacent MIS pair
  // now holds u, and a node can lose its dominator only if that dominator
  // was u or is demoted below: steps 1 and 2 read only those rows.

  // 1. Resolve MIS conflicts (adjacent dominators): demote the higher ID.
  // A smaller MIS neighbor demotes u; otherwise u demotes its MIS
  // neighbors, in row (name) order.  An inactive node has no links, and
  // cannot stay a dominator.
  demoted_.clear();
  if (mis_[u]) {
    const auto row = graph_.neighbors(u);
    const bool beaten =
        !graph_.is_active(u) ||
        std::any_of(row.begin(), row.end(),
                    [&](NodeId w) { return mis_[w] && before(w, u); });
    if (beaten) {
      mis_[u] = false;
      demoted_.push_back(u);
    } else {
      for (const NodeId w : row) {
        if (mis_[w]) {
          mis_[w] = false;
          demoted_.push_back(w);
        }
      }
    }
  }
  report.demoted = demoted_.size();

  // 2. Restore maximality: an active node without a dominator in its closed
  // neighborhood is promoted, ascending by ID (the promotion keeps
  // independence because the candidate has no MIS neighbor).  Only u, its
  // old neighbors (right after u in the old ball's BFS order) and the
  // closed neighborhoods of demoted nodes can lack one: any other active
  // node keeps its pre-event dominator, since promotions only add MIS nodes.
  candidates_.clear();
  add_member(candidates_, u, kCandidate);
  for (std::size_t i = 1; i < region_.size() && peek(region_[i]).d_old == 1;
       ++i) {
    add_member(candidates_, region_[i], kCandidate);
  }
  for (const NodeId d : demoted_) {
    add_member(candidates_, d, kCandidate);
    for (const NodeId v : graph_.neighbors(d)) {
      add_member(candidates_, v, kCandidate);
    }
  }
  std::sort(candidates_.begin(), candidates_.end(), by_name());
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
  for (const auto* changed : {&demoted_, &promoted_}) {
    for (const NodeId c : *changed) {
      if (c == u) continue;
      const auto changed_ball = bfs_.run(graph_, c, 3);
      report.searched += changed_ball.size();
      for (const NodeId v : changed_ball) {
        if (mis_[v]) add_member(affected_, v, kAffected);
      }
    }
  }
  for (const NodeId d : demoted_) add_member(affected_, d, kAffected);
  std::sort(affected_.begin(), affected_.end(), by_name());
  rebridge(u, report);

  report.region_size = region_.size();
  return report;
}

RepairReport DynamicWcds::move_node(NodeId u, const geom::Point& destination) {
  WCDS_REQUIRE_BOUNDS(u < node_count(), "move_node: bad id " << u);
  obs::PhaseTimer event_timer(recorder_, "maintenance/move_node");
  const NodeId s = graph_.slot_of(u);
  begin_event(s);
  graph_.relocate(s, destination);
  const RepairReport report = repair(s);
  event_timer.stop();
  record_event("move_node", report);
  maybe_audit("move_node");
  return report;
}

RepairReport DynamicWcds::deactivate(NodeId u) {
  WCDS_REQUIRE_BOUNDS(u < node_count(), "deactivate: bad id " << u);
  if (!is_active(u)) return {};
  obs::PhaseTimer event_timer(recorder_, "maintenance/deactivate");
  const NodeId s = graph_.slot_of(u);
  begin_event(s);
  graph_.set_active(s, false);
  const RepairReport report = repair(s);
  event_timer.stop();
  record_event("deactivate", report);
  maybe_audit("deactivate");
  return report;
}

RepairReport DynamicWcds::activate(NodeId u) {
  WCDS_REQUIRE_BOUNDS(u < node_count(), "activate: bad id " << u);
  if (is_active(u)) return {};
  obs::PhaseTimer event_timer(recorder_, "maintenance/activate");
  const NodeId s = graph_.slot_of(u);
  begin_event(s);  // an inactive node's ball is itself
  graph_.set_active(s, true);
  const RepairReport report = repair(s);
  event_timer.stop();
  record_event("activate", report);
  maybe_audit("activate");
  return report;
}

RepairReport DynamicWcds::watchdog() {
  if (audit().ok()) return {};
  obs::PhaseTimer event_timer(recorder_, "maintenance/watchdog");
  // Recovery: rebuild from Algorithm II over the active graph, as the
  // constructor does.  Costlier than the 3-hop event path, but only reached
  // when the maintained state was perturbed outside the event interface.
  RepairReport report{.region_size = node_count()};
  std::vector<bool> was_mis(node_count(), false);
  mis_.swap(was_mis);
  for (auto& list : bridges_) {
    report.bridges_changed += list.size();
    list.clear();
  }
  std::fill(via_count_.begin(), via_count_.end(), 0);
  seed(graph_.materialize());
  for (NodeId s = 0; s < node_count(); ++s) {
    report.bridges_changed += bridges_[s].size();
    report.demoted += was_mis[s] && !mis_[s];
    report.promoted += !was_mis[s] && mis_[s];
  }
  report.bridges_changed /= 2;  // each bridge is listed at both endpoints
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
  std::vector<NodeId> mis;
  std::vector<NodeId> additional;
  for (const NodeId u : dominators()) {
    (mis_[graph_.slot_of(u)] ? mis : additional).push_back(u);
  }
  const core::WcdsResult result = core::WcdsResult::from_members(
      node_count(), std::move(mis), std::move(additional));
  const std::vector<bool> active = graph_.active_mask();
  check::AuditOptions options;
  options.unit_disk = true;  // the active graph is a UDG by construction
  options.check_dilation = true;  // seeded and repaired as Algorithm II
  options.active = &active;
  const graph::Graph g = graph_.materialize();
  check::audit_invariants(g, result, options);
  // The maintenance-specific contract on top of the paper invariants.
  WCDS_CHECK(audit(g, active).bridges_complete,
             "Section 4.2 (maintenance): unbridged 3-hop MIS pair after "
                 << event);
}

Audit DynamicWcds::audit(const graph::Graph& g,
                         const std::vector<bool>& active) const {
  // Everything below is by name, like `g` and `active`.
  std::vector<bool> mis(node_count());
  std::vector<bool> dominator(node_count());
  for (NodeId s = 0; s < node_count(); ++s) {
    mis[name(s)] = mis_[s];
    dominator[name(s)] = mis_[s] || via_count_[s] > 0;
  }
  std::vector<NodeId> mis_members;
  for (NodeId u = 0; u < node_count(); ++u) {
    if (mis[u] && active[u]) mis_members.push_back(u);
  }
  const check::WcdsSweep backbone = check::sweep_wcds(g, dominator, &active);
  // Every 3-hop MIS pair holds a valid bridge record whose via is a
  // dominator: its path a-via-x-b then has its middle edge in the spanner,
  // so bridges_complete implies Theorem 11's certificate.
  bool bridged = true;
  const auto balls = mis::audit_mis_balls(
      g, mis_members, backbone.components, nullptr,
      [&](NodeId a, NodeId b, HopCount hops) {
        if (hops != 3 || b < a) return;
        const NodeId sa = graph_.slot_of(a);
        const NodeId sb = graph_.slot_of(b);
        const Bridge* bridge = find_bridge(sa, sb);
        bridged = bridged && bridge != nullptr &&
                  via_count_[bridge->via] > 0 &&
                  bridge_valid(sa, sb, bridge->via);
      });
  return {.mis_independent = balls.adjacent == kInvalidNode,
          .mis_maximal =
              mis::first_undominated(g, mis, &active) == kInvalidNode,
          .bridges_complete = bridged,
          .weakly_connected = backbone.unreached == kInvalidNode};
}

}  // namespace wcds::maintenance
