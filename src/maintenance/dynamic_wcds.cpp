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
constexpr std::uint8_t kPromoted = 8;    // promoted by this event

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

void DynamicWcds::drop_bridge(Bridge bridge) {
  erase_listing(bridge.a, bridge);
  erase_listing(bridge.b, bridge);
  --via_count_[bridge.via];
}

bool DynamicWcds::bridge_valid(NodeId a, NodeId b, NodeId v) const {
  // v must be active, adjacent to one endpoint and two hops from the other:
  // the audited invariant, which any 3-hop path's second node meets (the
  // event path records the lower endpoint's smallest one).
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

void DynamicWcds::rebridge(NodeId u, RepairReport& report) {
  // A bridge is a function of the active graph and the MIS alone: every MIS
  // pair (a, b), name a < name b, exactly 3 hops apart, through row_via(a,
  // b).  So the event changes only
  //  * the pairs with a demoted endpoint, which are dropped;
  //  * the pairs of two continuing MIS nodes whose paths of at most 3 hops
  //    changed.  The links changed only at u, so such a path runs through
  //    u in the old or the new graph: d(a,u) + d(u,b) <= 3 there (the pair
  //    is "touched"), read off the marks of the two event balls.  One
  //    endpoint then lies within 1 hop of u.  Every untouched pair keeps
  //    its paths, hence its 3-hop status and its smallest via;
  //  * the pairs with a promoted endpoint, found in that node's ball.
  std::size_t dropped = 0;
  std::size_t added = 0;
  for (const NodeId d : demoted_) {
    for (const Bridge& bridge : bridges_[d]) {
      const NodeId partner = bridge.a == d ? bridge.b : bridge.a;
      if (mis_[partner]) {
        erase_listing(partner, bridge);
      } else if (bridge.a != d) {
        continue;  // both endpoints demoted: dropped once, at a
      }
      --via_count_[bridge.via];
      ++dropped;
    }
    bridges_[d].clear();
  }

  const auto continuing = [&](NodeId v) {
    return mis_[v] && (peek(v).flags & kPromoted) == 0;
  };
  const auto near = [](const Mark& m) { return m.d_old <= 1 || m.d_new <= 1; };
  for (const NodeId a : region_) {
    const Mark ma = peek(a);
    if (!near(ma) || !continuing(a)) continue;
    for (const NodeId b : region_) {
      const Mark mb = peek(b);
      if (b == a || !continuing(b) || (near(mb) && before(b, a))) continue;
      if (ma.d_old + mb.d_old > 3 && ma.d_new + mb.d_new > 3) continue;
      const auto [lo, hi] = before(a, b) ? std::pair{a, b} : std::pair{b, a};
      const NodeId via = row_via(lo, hi);
      const Bridge* old = find_bridge(lo, hi);
      if (old != nullptr && old->via == via) continue;
      if (old != nullptr) {
        drop_bridge(*old);
        ++dropped;
      }
      if (via != kInvalidNode) {
        add_bridge({lo, hi, via});
        ++added;
      }
    }
  }

  // A promoted node p bridges every MIS node 3 hops away; a pair of two
  // promoted nodes is added from its smaller one.  u's ball is the event's
  // new ball; any other changed node runs its own, whose MIS nodes also
  // join affected_.
  const auto add_pair = [&](NodeId p, NodeId b) {
    if (!mis_[b] || ((peek(b).flags & kPromoted) != 0 && before(b, p))) return;
    const auto [lo, hi] = before(p, b) ? std::pair{p, b} : std::pair{b, p};
    add_bridge({lo, hi, row_via(lo, hi)});
    ++added;
  };
  if (mis_[u] && (peek(u).flags & kPromoted) != 0) {
    for (const NodeId b : region_) {
      if (peek(b).d_new == 3) add_pair(u, b);
    }
  }
  for (const auto* changed : {&demoted_, &promoted_}) {
    for (const NodeId c : *changed) {
      if (c == u) continue;
      const auto ball = bfs_.run(graph_, c, 3);
      report.searched += ball.size();
      for (const NodeId v : ball) {  // c is promoted iff it is MIS
        if (mis_[v]) add_member(affected_, v, kAffected);
        if (mis_[c] && bfs_.distance(v) == 3) add_pair(c, v);
      }
    }
  }

  // report.bridges_changed counts the bridges with an endpoint in affected_
  // before the event plus those after it.  Every bridge dropped or added
  // above has one, so the count before is the count after, plus the
  // drops, minus the additions.
  std::size_t after = 0;
  for (const NodeId a : affected_) {
    for (const Bridge& bridge : bridges_[a]) {
      const NodeId partner = bridge.a == a ? bridge.b : bridge.a;
      // A bridge between two affected nodes counts once, at its a.
      after += (peek(partner).flags & kAffected) == 0 || bridge.a == a;
    }
  }
  report.bridges_changed += 2 * after + dropped - added;
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

  // 3. Re-judge the bridges the event touched.  affected_ scopes
  // report.bridges_changed: the MIS nodes within 3 hops of u (the region)
  // or of a demoted or promoted node, plus the demoted nodes.
  affected_.clear();
  for (const NodeId v : region_) {
    if (mis_[v]) add_member(affected_, v, kAffected);
  }
  for (const NodeId d : demoted_) add_member(affected_, d, kAffected);
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
