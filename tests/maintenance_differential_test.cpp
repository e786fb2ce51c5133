// Differential test: the incremental DynamicWcds (IncrementalUdg rows,
// LocalBfs balls, indexed bridges) against the rebuild-everything reference
// it replaced (maintenance_reference.h).  After every event both must hold
// the same MIS, bridges and dominators, report the same RepairReport, and
// the maintained graph must equal udg::build_udg over the active nodes.
// The stamp-based bridge search row_via is checked against the merge walk
// it replaced (reference_row_via) on every MIS pair within 3 hops.  A fresh
// DynamicWcds must hold Algorithm II's backbone under kLexSmallestPair.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "churn_mix.h"
#include "dynamic_wcds_peer.h"
#include "geom/rng.h"
#include "geom/workload.h"
#include "graph/local_bfs.h"
#include "graph/subgraph.h"
#include "maintenance/crash_schedule.h"
#include "maintenance/dynamic_wcds.h"
#include "maintenance_reference.h"
#include "test_util.h"
#include "udg/udg.h"
#include "wcds/algorithm2.h"

namespace wcds::testing {
namespace {

using maintenance::DynamicWcds;
using maintenance::DynamicWcdsTestPeer;
using maintenance::RepairReport;

// udg::build_udg over all positions with every edge at an inactive node
// dropped: the graph DynamicWcds must be maintaining.
std::vector<std::pair<NodeId, NodeId>> oracle_edges(const DynamicWcds& net) {
  std::vector<geom::Point> points;
  for (NodeId u = 0; u < net.node_count(); ++u) {
    points.push_back(net.position(u));
  }
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (const auto& [u, v] : udg::build_udg(points).edges()) {
    if (net.is_active(u) && net.is_active(v)) edges.emplace_back(u, v);
  }
  return edges;
}

// Drives a DynamicWcds and its reference in lockstep.
class Lockstep {
 public:
  Lockstep(const std::vector<geom::Point>& points, double range = 1.0)
      : net_(points, range), ref_(points, range) {
    expect_same("construction");
  }

  // Applies `event` to both and returns the incremental report.
  template <class Event>
  RepairReport step(const std::string& what, Event&& event) {
    if (::testing::Test::HasFailure()) return {};  // report the first mismatch
    const RepairReport got = event(net_);
    const RepairReport want = event(ref_);
    EXPECT_EQ(got.demoted, want.demoted) << what;
    EXPECT_EQ(got.promoted, want.promoted) << what;
    EXPECT_EQ(got.bridges_changed, want.bridges_changed) << what;
    EXPECT_EQ(got.region_size, want.region_size) << what;
    expect_same(what);
    return got;
  }

  RepairReport move(NodeId u, const geom::Point& p) {
    return step("move " + std::to_string(u),
                [&](auto& net) { return net.move_node(u, p); });
  }
  RepairReport off(NodeId u) {
    return step("off " + std::to_string(u),
                [&](auto& net) { return net.deactivate(u); });
  }
  RepairReport on(NodeId u) {
    return step("on " + std::to_string(u),
                [&](auto& net) { return net.activate(u); });
  }

  void expect_same(const std::string& what) const {
    const std::size_t n = net_.node_count();
    std::vector<bool> mis(n);
    for (NodeId u = 0; u < n; ++u) mis[u] = net_.is_mis_dominator(u);
    EXPECT_EQ(mis, ref_.mis_mask()) << what;
    EXPECT_EQ(net_.bridges(), ref_.bridges()) << what;
    EXPECT_EQ(net_.dominators(), ref_.dominators()) << what;
    std::vector<bool> via(n, false);
    for (const auto& [pair, v] : ref_.bridges()) via[v] = true;
    for (NodeId u = 0; u < n; ++u) {
      ASSERT_EQ(net_.is_additional_dominator(u), via[u]) << what << " @" << u;
    }
    const auto edges = net_.active_graph().edges();
    EXPECT_EQ(edges, oracle_edges(net_)) << what;
    EXPECT_EQ(edges, ref_.active_graph().edges()) << what;
  }

  DynamicWcds& net() { return net_; }
  ReferenceDynamicWcds& ref() { return ref_; }

 private:
  DynamicWcds net_;
  ReferenceDynamicWcds ref_;
};

// The T6 table's event scripts (bench_t6_maintenance): 60 events per
// (n, move radius) cell, unclamped moves, on/off of random nodes.
TEST(MaintenanceDifferential, T6Scripts) {
  for (const std::uint32_t n : {200u, 500u, 1000u}) {
    for (const double radius : {0.25, 1.0}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " radius=" + std::to_string(radius));
      const double side = geom::side_for_expected_degree(n, 12.0);
      Lockstep lock(geom::uniform_square(n, side, 7));
      geom::Xoshiro256ss rng(n * 31 + 5);
      for (int e = 0; e < 60; ++e) {
        const auto u = static_cast<NodeId>(rng.next_below(n));
        const auto kind = rng.next_below(10);
        if (kind < 8) {
          geom::Point p = lock.net().position(u);
          p.x += rng.next_double(-radius, radius);
          p.y += rng.next_double(-radius, radius);
          lock.move(u, p);
        } else if (kind == 8) {
          lock.off(u);
        } else {
          lock.on(u);
        }
      }
    }
  }
}

// 500 events of the benchmark's churn mix on its 4096-node deployment.
TEST(MaintenanceDifferential, BenchmarkChurnMix) {
  const AuditsOff audits_off;
  const auto points = churn_deployment(4096, 41);
  Lockstep lock(points);
  ChurnMix mix(43, points);
  for (int e = 0; e < 500; ++e) {
    const ChurnEvent event = mix.next(lock.net());
    lock.step("churn event " + std::to_string(e),
              [&](auto& net) { return apply(net, event); });
  }
}

// DynamicWcds::row_via against the merge-walk oracle on every MIS pair
// (a, b) within 3 hops of each other, both ways round; returns the number
// of pairs compared.
std::size_t expect_row_via_matches(DynamicWcds& net, const std::string& what) {
  const graph::Graph g = net.active_graph();
  graph::LocalBfs bfs;
  std::size_t pairs = 0;
  for (NodeId a = 0; a < g.node_count(); ++a) {
    if (!net.is_mis_dominator(a)) continue;
    for (const NodeId b : bfs.run(g, a, 3)) {
      if (b == a || !net.is_mis_dominator(b)) continue;
      EXPECT_EQ(DynamicWcdsTestPeer::row_via(net, a, b),
                reference_row_via(g, a, b))
          << what << ": a=" << a << " b=" << b;
      ++pairs;
    }
    if (::testing::Test::HasFailure()) break;  // report the first mismatch
  }
  return pairs;
}

// The same 500 events; after each one row_via must agree with the oracle.
TEST(MaintenanceDifferential, RowViaMatchesMergeWalkOnChurn) {
  const AuditsOff audits_off;
  const auto points = churn_deployment(4096, 41);
  DynamicWcds net(points);
  ChurnMix mix(43, points);
  EXPECT_GT(expect_row_via_matches(net, "construction"), 0u);
  for (int e = 0; e < 500 && !HasFailure(); ++e) {
    (void)apply(net, mix.next(net));
    expect_row_via_matches(net, "churn event " + std::to_string(e));
  }
}

// row_via's stamps wrap around: stamps left from before the wrap must not
// read as marks of the new epoch.  N(b) is stamped with epoch 1 for an MIS
// node b two hops from a; after the wrap, epoch 1 comes back for a pair
// (a, c) three hops apart, where a stale mark would fake a common neighbor.
TEST(MaintenanceDifferential, RowViaSurvivesStampWrap) {
  const auto points = churn_deployment(300, 5, 12.0);
  DynamicWcds net(points);
  const graph::Graph g = net.active_graph();
  graph::LocalBfs bfs;
  NodeId a = 0;
  NodeId b = kInvalidNode;
  NodeId c = kInvalidNode;
  for (; a < g.node_count(); ++a) {
    if (!net.is_mis_dominator(a)) continue;
    b = c = kInvalidNode;
    for (const NodeId v : bfs.run(g, a, 3)) {
      if (!net.is_mis_dominator(v)) continue;
      if (bfs.distance(v) == 2 && b == kInvalidNode) b = v;
      if (bfs.distance(v) == 3 && c == kInvalidNode) c = v;
    }
    if (b != kInvalidNode && c != kInvalidNode) break;
  }
  ASSERT_LT(a, g.node_count());
  const NodeId want = reference_row_via(g, a, c);
  ASSERT_NE(want, kInvalidNode);

  DynamicWcdsTestPeer::set_row_via_epoch(net, 0);
  EXPECT_EQ(DynamicWcdsTestPeer::row_via(net, a, b), kInvalidNode);
  DynamicWcdsTestPeer::set_row_via_epoch(
      net, std::numeric_limits<std::uint32_t>::max() - 1);
  EXPECT_EQ(DynamicWcdsTestPeer::row_via(net, a, c), want);  // last epoch
  EXPECT_EQ(DynamicWcdsTestPeer::row_via(net, a, c), want);  // wrapped to 1
  EXPECT_GT(expect_row_via_matches(net, "after the wrap"), 2u);
}

// The bridges of the canonical rule, recomputed from `net`'s active graph
// and MIS alone: every MIS pair a < b exactly 3 hops apart, through
// reference_row_via(g, a, b), the smallest neighbor of a on a 3-hop path.
// Returns the first difference from net.bridges(), or "" when there is
// none.
std::string canonical_difference(const DynamicWcds& net) {
  const graph::Graph g = net.active_graph();
  graph::LocalBfs bfs;
  std::map<std::pair<NodeId, NodeId>, NodeId> want;
  for (NodeId a = 0; a < g.node_count(); ++a) {
    if (!net.is_active(a) || !net.is_mis_dominator(a)) continue;
    for (const NodeId b : bfs.run(g, a, 3)) {
      if (a < b && bfs.distance(b) == 3 && net.is_mis_dominator(b)) {
        want.emplace(std::pair{a, b}, reference_row_via(g, a, b));
      }
    }
  }
  const auto got = net.bridges();
  const auto describe = [](const auto& entry) {
    return "(" + std::to_string(entry.first.first) + ", " +
           std::to_string(entry.first.second) + ") via " +
           std::to_string(entry.second);
  };
  auto g_it = got.begin();
  auto w_it = want.begin();
  for (; g_it != got.end() && w_it != want.end(); ++g_it, ++w_it) {
    if (*g_it != *w_it) {
      return "holds " + describe(*g_it) + ", canonical " + describe(*w_it);
    }
  }
  if (g_it != got.end()) return "extra bridge " + describe(*g_it);
  if (w_it != want.end()) return "missing bridge " + describe(*w_it);
  return "";
}

// After every event of the benchmark churn mix (n = 1024 and 4096, both
// move radii of the digest cells) and of a radio on/off storm, the
// maintained bridges are exactly the canonical ones: no via depends on
// which endpoint an event re-judged a pair from.
TEST(MaintenanceDifferential, BridgesAreCanonicalAfterEveryEvent) {
  const AuditsOff audits_off;
  const auto expect_canonical = [](const DynamicWcds& net,
                                   const std::string& what) {
    const std::string difference = canonical_difference(net);
    EXPECT_EQ(difference, "") << what;
    return difference.empty();
  };
  for (const std::uint32_t n : {1024U, 4096U}) {
    for (const double radius : {0.5, 3.0}) {
      const std::string cell =
          "n=" + std::to_string(n) + " radius=" + std::to_string(radius);
      const auto points = churn_deployment(n, n + 7);
      DynamicWcds net(points);
      ChurnMix mix(n * 3 + 1, points, radius);
      bool same = expect_canonical(net, cell + " construction");
      for (int e = 0; e < 300 && same; ++e) {
        (void)apply(net, mix.next(net));
        same = expect_canonical(net, cell + " event " + std::to_string(e));
      }
    }
  }
  const auto points = churn_deployment(1024, 29, 12.0);
  DynamicWcds net(points);
  geom::Xoshiro256ss rng(31);
  std::vector<NodeId> victims;
  for (NodeId u = 0; u < points.size(); ++u) {
    if (rng.next_below(3) == 0) victims.push_back(u);
  }
  bool same = true;
  for (const NodeId u : victims) {
    if (!same) break;
    (void)net.deactivate(u);
    same = expect_canonical(net, "storm off " + std::to_string(u));
  }
  for (std::size_t i = victims.size(); i > 1; --i) {
    std::swap(victims[i - 1], victims[rng.next_below(i)]);
  }
  for (const NodeId u : victims) {
    if (!same) break;
    (void)net.activate(u);
    same = expect_canonical(net, "storm on " + std::to_string(u));
  }
}

// Moves far out of range isolate nodes (new grid cells, empty rows), a
// second node joins the first out there, then both come back.
TEST(MaintenanceDifferential, FarMovesIntoIsolation) {
  const auto points = churn_deployment(300, 5, 12.0);
  Lockstep lock(points);
  lock.move(5, {1e5, 1e5});
  lock.move(6, {1e5 + 0.5, 1e5});
  lock.move(7, {-1e5, 3.0});
  lock.off(6);
  lock.move(6, {1e5, 1e5 + 0.25});  // moving while off keeps it isolated
  lock.on(6);
  lock.move(5, points[5]);
  lock.move(6, points[6]);
  lock.move(7, points[7]);
  EXPECT_TRUE(lock.net().audit().ok());
}

// Radio storms: a third of the network switches off, then back on in a
// shuffled order, twice over.
TEST(MaintenanceDifferential, OnOffStorms) {
  const auto points = churn_deployment(400, 9, 12.0);
  Lockstep lock(points);
  geom::Xoshiro256ss rng(17);
  for (int storm = 0; storm < 2; ++storm) {
    std::vector<NodeId> victims;
    for (NodeId u = 0; u < points.size(); ++u) {
      if (rng.next_below(3) == 0) victims.push_back(u);
    }
    for (NodeId u : victims) lock.off(u);
    for (std::size_t i = victims.size(); i > 1; --i) {
      std::swap(victims[i - 1], victims[rng.next_below(i)]);
    }
    for (NodeId u : victims) lock.on(u);
  }
}

// run_crash_schedule over the incremental implementation versus the same
// off/on pairs on the reference, then the watchdog on both.
TEST(MaintenanceDifferential, CrashScheduleAndWatchdog) {
  const auto points = churn_deployment(500, 13, 12.0);
  Lockstep lock(points);
  const std::vector<NodeId> victims{3, 77, 150, 151, 299, 420, 3};
  const auto schedule =
      maintenance::run_crash_schedule(lock.net(), victims);
  ASSERT_EQ(schedule.outcomes.size(), victims.size());
  for (const auto& outcome : schedule.outcomes) {
    const RepairReport crash = lock.ref().deactivate(outcome.node);
    const RepairReport recover = lock.ref().activate(outcome.node);
    EXPECT_EQ(outcome.crash_repair.demoted, crash.demoted);
    EXPECT_EQ(outcome.crash_repair.promoted, crash.promoted);
    EXPECT_EQ(outcome.crash_repair.bridges_changed, crash.bridges_changed);
    EXPECT_EQ(outcome.crash_repair.region_size, crash.region_size);
    EXPECT_EQ(outcome.recover_repair.demoted, recover.demoted);
    EXPECT_EQ(outcome.recover_repair.promoted, recover.promoted);
    EXPECT_EQ(outcome.recover_repair.bridges_changed,
              recover.bridges_changed);
    EXPECT_EQ(outcome.recover_repair.region_size, recover.region_size);
  }
  lock.expect_same("after crash schedule");
  lock.step("watchdog", [](auto& net) { return net.watchdog(); });
}

// --- Cells for the event-local MIS repair ------------------------------------
//
// An event changes only the links at its node u, so a conflict pairs u with
// an MIS neighbor, and coverage can be lost only at u, u's old neighbors and
// the closed neighborhoods of demoted nodes.  Each cell drives one kind of
// event that exercises a branch of that rule.

// The MIS nodes of `net`, ascending.
std::vector<NodeId> mis_nodes(const DynamicWcds& net) {
  std::vector<NodeId> mis;
  for (NodeId u = 0; u < net.node_count(); ++u) {
    if (net.is_mis_dominator(u)) mis.push_back(u);
  }
  return mis;
}

// Two MIS nodes b < c, neither of them `skip`, less than 1.8 ranges apart,
// so that their midpoint is within range of both.
std::pair<NodeId, NodeId> near_mis_pair(const DynamicWcds& net, NodeId skip) {
  const std::vector<NodeId> mis = mis_nodes(net);
  for (const NodeId b : mis) {
    for (const NodeId c : mis) {
      if (b < c && b != skip && c != skip &&
          geom::squared_distance(net.position(b), net.position(c)) <
              1.8 * 1.8) {
        return {b, c};
      }
    }
  }
  return {kInvalidNode, kInvalidNode};
}

geom::Point midpoint(const geom::Point& a, const geom::Point& b) {
  return {(a.x + b.x) / 2, (a.y + b.y) / 2};
}

// The active neighbors of MIS node m whose only MIS neighbor is m.
std::vector<NodeId> private_neighbors(const DynamicWcds& net, NodeId m) {
  const graph::Graph g = net.active_graph();
  std::vector<NodeId> only_m;
  for (const NodeId v : g.neighbors(m)) {
    const auto row = g.neighbors(v);
    if (!net.is_mis_dominator(v) &&
        std::count_if(row.begin(), row.end(), [&](NodeId w) {
          return net.is_mis_dominator(w);
        }) == 1) {
      only_m.push_back(v);
    }
  }
  return only_m;
}

// An MIS node moved next to a smaller MIS node loses the conflict: it alone
// is demoted, and its old neighbors are re-covered.
TEST(MaintenanceDifferential, MisNodeMovedNextToASmallerOne) {
  const auto points = churn_deployment(300, 5, 12.0);
  Lockstep lock(points);
  for (int round = 0; round < 4; ++round) {
    const std::vector<NodeId> mis = mis_nodes(lock.net());
    ASSERT_GT(mis.size(), 2u);
    const NodeId a = mis[round];
    const NodeId u = mis[mis.size() - 1 - round];
    const geom::Point p = lock.net().position(a);
    const RepairReport report = lock.move(u, {p.x + 0.5, p.y});
    EXPECT_EQ(report.demoted, 1u) << "round " << round;
    EXPECT_FALSE(lock.net().is_mis_dominator(u)) << "round " << round;
    EXPECT_TRUE(lock.net().is_mis_dominator(a)) << "round " << round;
  }
  EXPECT_TRUE(lock.net().audit().ok());
}

// The smallest MIS node moved between two larger ones wins against both:
// they are demoted, and their neighborhoods are re-covered.
TEST(MaintenanceDifferential, MisNodeMovedBetweenLargerOnes) {
  const auto points = churn_deployment(300, 5, 12.0);
  Lockstep lock(points);
  std::size_t promoted = 0;
  for (int round = 0; round < 4; ++round) {
    const NodeId u = mis_nodes(lock.net()).front();
    const auto [b, c] = near_mis_pair(lock.net(), u);
    ASSERT_NE(b, kInvalidNode) << "round " << round;
    const RepairReport report = lock.move(
        u, midpoint(lock.net().position(b), lock.net().position(c)));
    EXPECT_GE(report.demoted, 2u) << "round " << round;
    EXPECT_TRUE(lock.net().is_mis_dominator(u)) << "round " << round;
    EXPECT_FALSE(lock.net().is_mis_dominator(b)) << "round " << round;
    EXPECT_FALSE(lock.net().is_mis_dominator(c)) << "round " << round;
    promoted += report.promoted;
  }
  EXPECT_GT(promoted, 0u);
  EXPECT_TRUE(lock.net().audit().ok());
}

// The re-covered neighborhoods are promoted ascending by name, not in the
// order they were collected.  Node 0 moves between MIS nodes 1 and 2 and
// demotes both; 4 (a private neighbor of 1) and 3 (of 2) are adjacent, and
// 3 wins although 1's neighborhood is collected first.
TEST(MaintenanceDifferential, ReCoveredNeighborhoodsPromoteAscending) {
  const std::vector<geom::Point> points{
      {10.0, 0.0}, {0.0, 0.0}, {1.8, 0.0}, {1.39, 0.9}, {0.41, 0.9}};
  Lockstep lock(points);
  ASSERT_EQ(mis_nodes(lock.net()), (std::vector<NodeId>{0, 1, 2}));
  const RepairReport report = lock.move(0, {0.9, 0.0});
  EXPECT_EQ(report.demoted, 2u);
  EXPECT_EQ(report.promoted, 1u);
  EXPECT_EQ(mis_nodes(lock.net()), (std::vector<NodeId>{0, 3}));
}

// A node switched on between two MIS nodes joins them as a dominated node:
// an inactive node is never an MIS node, so a switch-on demotes nothing.
// Here u is an MIS node first, switched off, moved while off, then back on.
TEST(MaintenanceDifferential, SwitchOnBetweenTwoMisNodes) {
  const auto points = churn_deployment(300, 5, 12.0);
  Lockstep lock(points);
  for (int round = 0; round < 4; ++round) {
    const NodeId u = mis_nodes(lock.net())[round];
    lock.off(u);
    const auto [b, c] = near_mis_pair(lock.net(), u);
    ASSERT_NE(b, kInvalidNode) << "round " << round;
    lock.move(u, midpoint(lock.net().position(b), lock.net().position(c)));
    const RepairReport report = lock.on(u);
    EXPECT_EQ(report.demoted, 0u) << "round " << round;
    EXPECT_EQ(report.promoted, 0u) << "round " << round;
    EXPECT_FALSE(lock.net().is_mis_dominator(u)) << "round " << round;
    EXPECT_TRUE(lock.net().is_mis_dominator(b)) << "round " << round;
    EXPECT_TRUE(lock.net().is_mis_dominator(c)) << "round " << round;
  }
  EXPECT_TRUE(lock.net().audit().ok());
}

// Switching off the only dominator of several nodes: each of them is a
// candidate, and the smallest undominated ones are promoted.
TEST(MaintenanceDifferential, SwitchOffOfTheOnlyDominator) {
  const auto points = churn_deployment(300, 5, 12.0);
  Lockstep lock(points);
  int switched = 0;
  for (const NodeId m : mis_nodes(lock.net())) {
    if (switched == 4) break;
    if (!lock.net().is_mis_dominator(m) ||
        private_neighbors(lock.net(), m).size() < 3) {
      continue;
    }
    const RepairReport report = lock.off(m);
    EXPECT_EQ(report.demoted, 1u) << "off " << m;
    EXPECT_GT(report.promoted, 0u) << "off " << m;
    ++switched;
  }
  EXPECT_EQ(switched, 4);
  EXPECT_TRUE(lock.net().audit().ok());
}

// Moves into isolation: an MIS node stays MIS alone and its old neighbors
// are re-covered; a dominated node becomes an MIS node of its own.
TEST(MaintenanceDifferential, MovesIntoIsolation) {
  const auto points = churn_deployment(300, 5, 12.0);
  Lockstep lock(points);
  NodeId m = 0;
  while (!lock.net().is_mis_dominator(m) ||
         private_neighbors(lock.net(), m).empty()) {
    ++m;
  }
  const RepairReport away = lock.move(m, {1e5, 1e5});
  EXPECT_EQ(away.demoted, 0u);
  EXPECT_GT(away.promoted, 0u);
  EXPECT_TRUE(lock.net().is_mis_dominator(m));
  NodeId v = 0;
  while (lock.net().is_mis_dominator(v) || v == m) ++v;
  const RepairReport alone = lock.move(v, {-1e5, 1e5});
  EXPECT_EQ(alone.promoted, 1u);
  EXPECT_TRUE(lock.net().is_mis_dominator(v));
  lock.move(m, points[m]);
  lock.move(v, points[v]);
  EXPECT_TRUE(lock.net().audit().ok());
}

// `net` holds the MIS and the bridges of `alg2`: the same MIS mask, and one
// bridge per forward 3-hop row with the same via.
void expect_backbone_of(const DynamicWcds& net,
                        const core::Algorithm2Output& alg2,
                        const std::string& what) {
  std::vector<bool> mis(net.node_count());
  for (NodeId u = 0; u < net.node_count(); ++u) {
    mis[u] = net.is_mis_dominator(u);
  }
  EXPECT_EQ(mis, graph::make_mask(net.node_count(),
                                  alg2.result.mis_dominators))
      << what;
  EXPECT_EQ(net.bridges(), forward_rows(alg2.lists)) << what;
}

// A fresh DynamicWcds against Algorithm II under kLexSmallestPair, on the
// algorithm2_lists_differential_test families: both take the greedy
// lowest-ID MIS, and both bridge a 3-hop MIS pair a < b through the
// smallest neighbor of a on a 3-hop path.  kReuseIntermediates prefers a
// via already chosen for another pair, so its rows differ by design; it is
// not the rule maintenance keeps.
class SeedDifferential
    : public ::testing::TestWithParam<
          std::tuple<geom::WorkloadKind, std::uint64_t, double>> {};

TEST_P(SeedDifferential, FreshBackboneIsAlgorithm2s) {
  const AuditsOff audits_off;
  const auto [kind, seed, degree] = GetParam();
  const Instance inst = connected_workload_instance(kind, 400, degree, seed);
  const DynamicWcds net(inst.points);
  const core::Algorithm2Output alg2 = core::algorithm2(inst.g);
  expect_backbone_of(net, alg2, "connected");
  EXPECT_FALSE(forward_rows(alg2.lists).empty());
}

// A deployment of several components (two families far apart, plus
// isolated nodes) against the connectivity-free construction body, which
// algorithm2() itself refuses.
TEST(SeedDifferential, MultiComponentBackboneIsTheBodys) {
  const AuditsOff audits_off;
  std::vector<geom::Point> points =
      connected_workload_instance(geom::WorkloadKind::kUniform, 300, 12.0, 1)
          .points;
  for (const geom::Point& p :
       connected_workload_instance(geom::WorkloadKind::kCorridor, 200, 8.0, 2)
           .points) {
    points.push_back({p.x + 1000.0, p.y});
  }
  points.push_back({-500.0, -500.0});
  points.push_back({-500.0, 500.0});
  const graph::Graph g = udg::build_udg(points);
  ASSERT_FALSE(graph::is_connected(g));
  const DynamicWcds net(points);
  const core::Algorithm2Output body = core::algorithm2_components(g);
  expect_backbone_of(net, body, "multi-component");
  EXPECT_TRUE(net.is_mis_dominator(500));  // isolated
  EXPECT_TRUE(net.audit().ok());
}

std::string seed_cell_name(
    const ::testing::TestParamInfo<SeedDifferential::ParamType>& info) {
  const auto [kind, seed, degree] = info.param;
  std::string name = geom::to_string(kind);
  std::replace(name.begin(), name.end(), '-', '_');
  return name + "_seed" + std::to_string(seed) + "_deg" +
         std::to_string(static_cast<int>(degree));
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SeedDifferential,
    ::testing::Combine(::testing::Values(geom::WorkloadKind::kUniform,
                                         geom::WorkloadKind::kClustered,
                                         geom::WorkloadKind::kPerturbedGrid,
                                         geom::WorkloadKind::kCorridor,
                                         geom::WorkloadKind::kRing),
                       ::testing::Values(1u, 2u, 3u),
                       ::testing::Values(8.0, 16.0)),
    seed_cell_name);

}  // namespace
}  // namespace wcds::testing
