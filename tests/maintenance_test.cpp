// Dynamic WCDS maintenance: invariants after every mobility event, locality
// of repairs, and IncrementalUdg's name/slot layout.
#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/audit.h"
#include "check/check.h"
#include "churn_mix.h"
#include "dynamic_wcds_peer.h"
#include "geom/rng.h"
#include "geom/workload.h"
#include "graph/bfs.h"
#include "maintenance/crash_schedule.h"
#include "maintenance/dynamic_wcds.h"
#include "maintenance/incremental_udg.h"
#include "sole_bridge.h"
#include "test_util.h"
#include "udg/udg.h"
#include "wcds/algorithm2.h"

namespace wcds::maintenance {
namespace {

std::vector<geom::Point> deployment(std::uint32_t n, double degree,
                                    std::uint64_t seed) {
  return geom::uniform_square(n, geom::side_for_expected_degree(n, degree),
                              seed);
}

TEST(DynamicWcds, InitialStateIsValid) {
  DynamicWcds dyn(deployment(200, 10.0, 1));
  const auto audit = dyn.audit();
  EXPECT_TRUE(audit.mis_independent);
  EXPECT_TRUE(audit.mis_maximal);
  EXPECT_TRUE(audit.bridges_complete);
  EXPECT_TRUE(audit.weakly_connected);
  EXPECT_TRUE(audit.ok());
  EXPECT_FALSE(dyn.dominators().empty());
}

TEST(DynamicWcds, RejectsBadIds) {
  DynamicWcds dyn(deployment(10, 6.0, 2));
  EXPECT_THROW(dyn.move_node(10, {0, 0}), std::out_of_range);
  EXPECT_THROW(dyn.deactivate(99), std::out_of_range);
  EXPECT_THROW(dyn.activate(99), std::out_of_range);
}

TEST(DynamicWcds, RejectsNonPositiveRange) {
  EXPECT_THROW(DynamicWcds(deployment(5, 3.0, 1), 0.0), std::invalid_argument);
}

TEST(DynamicWcds, RejectsNonFinitePositions) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const geom::Point bad : {geom::Point{kNaN, 0.0}, geom::Point{0.0, kNaN},
                                geom::Point{kInf, 1.0},
                                geom::Point{1.0, -kInf}}) {
    auto pts = deployment(10, 6.0, 2);
    pts[4] = bad;
    EXPECT_THROW(DynamicWcds{pts}, std::invalid_argument);
  }
  DynamicWcds dyn(deployment(10, 6.0, 2));
  const auto before = dyn.position(3);
  EXPECT_THROW(dyn.move_node(3, {kNaN, 1.0}), std::invalid_argument);
  EXPECT_THROW(dyn.move_node(3, {1.0, kInf}), std::invalid_argument);
  // A rejected move leaves the node where it was.
  EXPECT_EQ(dyn.position(3), before);
  EXPECT_TRUE(dyn.audit().ok());
}

TEST(DynamicWcds, RejectsPositionsOutsideTheCellGrid) {
  // Cells are range x range with int32 indices: 1e10 / 1.0 overflows, and
  // so does 10 / 1e-9 with a tiny range.
  auto pts = deployment(10, 6.0, 2);
  pts[0] = {1e10, 0.0};
  EXPECT_THROW(DynamicWcds{pts}, std::invalid_argument);
  EXPECT_THROW(DynamicWcds({{0.0, 0.0}, {10.0, 0.0}}, 1e-9),
               std::invalid_argument);
  DynamicWcds dyn(deployment(10, 6.0, 2));
  EXPECT_THROW(dyn.move_node(1, {0.0, -3e9}), std::invalid_argument);
  // Far, but inside the grid, is fine.
  EXPECT_NO_THROW(dyn.move_node(1, {2e9, -2e9}));
  EXPECT_TRUE(dyn.audit().ok());
}

TEST(DynamicWcds, MoveKeepsInvariants) {
  auto pts = deployment(150, 10.0, 3);
  DynamicWcds dyn(pts);
  geom::Xoshiro256ss rng(99);
  const double side = geom::side_for_expected_degree(150, 10.0);
  for (int step = 0; step < 25; ++step) {
    const NodeId u = static_cast<NodeId>(rng.next_below(150));
    const geom::Point target{rng.next_double(0.0, side),
                             rng.next_double(0.0, side)};
    const auto report = dyn.move_node(u, target);
    EXPECT_TRUE(dyn.audit().ok()) << "step " << step;
    EXPECT_GT(report.region_size, 0u);
  }
}

TEST(DynamicWcds, SmallJitterMovesTouchLittle) {
  auto pts = deployment(300, 12.0, 4);
  DynamicWcds dyn(pts);
  geom::Xoshiro256ss rng(7);
  std::size_t total_roles_changed = 0;
  for (int step = 0; step < 20; ++step) {
    const NodeId u = static_cast<NodeId>(rng.next_below(300));
    geom::Point p = dyn.position(u);
    p.x += rng.next_double(-0.2, 0.2);
    p.y += rng.next_double(-0.2, 0.2);
    const auto report = dyn.move_node(u, p);
    total_roles_changed += report.demoted + report.promoted;
    EXPECT_TRUE(dyn.audit().ok());
    // Locality: the repair region is a small fraction of the network.
    EXPECT_LT(report.region_size, 300u);
  }
  // Small jitters rarely change roles at all.
  EXPECT_LT(total_roles_changed, 40u);
}

TEST(DynamicWcds, DeactivateDominatorRepairsCoverage) {
  DynamicWcds dyn(deployment(120, 12.0, 5));
  // Find a dominator and switch it off.
  NodeId dominator = kInvalidNode;
  for (NodeId u = 0; u < 120; ++u) {
    if (dyn.is_mis_dominator(u)) {
      dominator = u;
      break;
    }
  }
  ASSERT_NE(dominator, kInvalidNode);
  const auto report = dyn.deactivate(dominator);
  EXPECT_FALSE(dyn.is_active(dominator));
  EXPECT_FALSE(dyn.is_mis_dominator(dominator));
  EXPECT_GE(report.demoted, 1u);
  EXPECT_TRUE(dyn.audit().ok());
}

TEST(DynamicWcds, DeactivateThenReactivateRoundTrip) {
  DynamicWcds dyn(deployment(100, 10.0, 6));
  const auto before = dyn.dominators();
  (void)dyn.deactivate(7);
  EXPECT_TRUE(dyn.audit().ok());
  (void)dyn.activate(7);
  EXPECT_TRUE(dyn.is_active(7));
  EXPECT_TRUE(dyn.audit().ok());
  (void)before;
}

TEST(DynamicWcds, DoubleDeactivateIsNoop) {
  DynamicWcds dyn(deployment(50, 8.0, 7));
  (void)dyn.deactivate(3);
  const auto report = dyn.deactivate(3);
  EXPECT_EQ(report.region_size, 0u);
  EXPECT_TRUE(dyn.audit().ok());
}

TEST(DynamicWcds, ChurnStress) {
  // Mixed event storm; invariants must hold after every single event.
  DynamicWcds dyn(deployment(180, 11.0, 8));
  geom::Xoshiro256ss rng(12345);
  const double side = geom::side_for_expected_degree(180, 11.0);
  for (int step = 0; step < 60; ++step) {
    const NodeId u = static_cast<NodeId>(rng.next_below(180));
    switch (rng.next_below(3)) {
      case 0:
        (void)dyn.move_node(u, {rng.next_double(0.0, side),
                                rng.next_double(0.0, side)});
        break;
      case 1:
        (void)dyn.deactivate(u);
        break;
      default:
        (void)dyn.activate(u);
        break;
    }
    ASSERT_TRUE(dyn.audit().ok()) << "event " << step << " on node " << u;
  }
}

TEST(DynamicWcds, ChurnWithCrashScheduleStaysAuditClean) {
  // Waves of mobility churn interleaved with crash/recover storms: the
  // combination the fault layer's A6 experiment measures.  Invariants must
  // hold after every wave, and the schedule must report one outcome per
  // victim with non-negative repair timings.
  constexpr std::uint32_t kNodes = 150;
  DynamicWcds dyn(deployment(kNodes, 10.0, 21));
  geom::Xoshiro256ss rng(77);
  const double side = geom::side_for_expected_degree(kNodes, 10.0);
  for (int wave = 0; wave < 5; ++wave) {
    for (int event = 0; event < 8; ++event) {
      const auto u = static_cast<NodeId>(rng.next_below(kNodes));
      (void)dyn.move_node(u, {rng.next_double(0.0, side),
                              rng.next_double(0.0, side)});
    }
    std::vector<NodeId> victims;
    while (victims.size() < 3) {
      const auto v = static_cast<NodeId>(rng.next_below(kNodes));
      if (dyn.is_active(v) &&
          std::find(victims.begin(), victims.end(), v) == victims.end()) {
        victims.push_back(v);
      }
    }
    const auto report = maintenance::run_crash_schedule(dyn, victims);
    ASSERT_EQ(report.outcomes.size(), victims.size()) << "wave " << wave;
    EXPECT_GE(report.total_repair_ms, 0.0);
    ASSERT_TRUE(dyn.audit().ok()) << "wave " << wave;
  }
}

TEST(DynamicWcds, MoveIntoIsolationStillAudits) {
  // A node moved far away becomes its own component; it must become a
  // dominator of itself (maximality) and audits must pass per component.
  DynamicWcds dyn(deployment(80, 10.0, 9));
  (void)dyn.move_node(5, {1e5, 1e5});
  EXPECT_TRUE(dyn.audit().ok());
  EXPECT_TRUE(dyn.is_mis_dominator(5));
}

// Every event audits the whole network before it returns, not only the ball
// it repaired: an MIS bit flipped more than 3 hops away (a dominated node
// joining the MIS breaks independence) survives the local repair, so each
// event's closing maybe_audit must throw — after the event has applied.
TEST(DynamicWcds, EveryEventAuditsBeyondItsRepairBall) {
  const bool audits_were = check::set_audits_enabled(true);
  DynamicWcds dyn(deployment(300, 10.0, 4));
  const graph::Graph g = dyn.active_graph();
  NodeId corrupt = 0;
  while (dyn.is_mis_dominator(corrupt) || g.degree(corrupt) == 0) ++corrupt;
  const std::vector<HopCount> hops = graph::bfs_distances(g, corrupt);
  NodeId u = corrupt;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (hops[v] != kUnreachable && hops[v] > hops[u]) u = v;
  }
  ASSERT_GT(hops[u], 3u);
  DynamicWcdsTestPeer::set_mis(dyn, corrupt, true);

  const geom::Point to{dyn.position(u).x + 0.05, dyn.position(u).y};
  EXPECT_THROW((void)dyn.move_node(u, to), check::CheckError);
  EXPECT_EQ(dyn.position(u), to);
  EXPECT_THROW((void)dyn.deactivate(u), check::CheckError);
  EXPECT_FALSE(dyn.is_active(u));
  EXPECT_THROW((void)dyn.activate(u), check::CheckError);
  EXPECT_TRUE(dyn.is_active(u));
  check::set_audits_enabled(audits_were);
}

// A bridge record is only as good as its via's membership in the backbone:
// with the via's count zeroed and the record kept, the pair loses its
// spanner path and audit() reports the bridges incomplete.
TEST(DynamicWcds, AuditFailsWhenABridgeViaLeavesTheBackbone) {
  DynamicWcds dyn(deployment(200, 10.0, 3));
  const auto bridges = dyn.bridges();
  ASSERT_FALSE(bridges.empty());
  const NodeId via = bridges.begin()->second;
  DynamicWcdsTestPeer::set_via_count(dyn, via, 0);
  EXPECT_FALSE(dyn.is_additional_dominator(via));
  EXPECT_FALSE(dyn.audit().bridges_complete);
}

// Theorem 11 through the event path: a sole bridge (sole_bridge.h) whose
// loss every other audit misses drops out of the backbone far from an
// event, and the event's closing audit names Theorem 11.
TEST(DynamicWcds, EventAuditRaisesTheorem11ForADroppedSoleBridge) {
  const bool audits_were = check::set_audits_enabled(true);
  DynamicWcds dyn(deployment(300, 10.0, 4));
  const graph::Graph g = dyn.active_graph();
  std::vector<NodeId> mis;
  std::vector<NodeId> additional;
  for (const NodeId u : dyn.dominators()) {
    (dyn.is_mis_dominator(u) ? mis : additional).push_back(u);
  }
  const auto snapshot =
      core::WcdsResult::from_members(g.node_count(), mis, additional);
  check::AuditOptions options;
  options.unit_disk = true;
  NodeId bridge = kInvalidNode;
  for (const auto& sole : testing::sole_bridges(g, snapshot)) {
    try {
      check::audit_invariants(g, testing::without(snapshot, sole.bridge),
                              options);
      bridge = sole.bridge;
      break;
    } catch (const check::CheckError&) {
      // the drop broke something else too
    }
  }
  ASSERT_NE(bridge, kInvalidNode);
  const std::vector<HopCount> hops = graph::bfs_distances(g, bridge);
  NodeId u = bridge;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (hops[v] != kUnreachable && hops[v] > hops[u]) u = v;
  }
  ASSERT_GT(hops[u], 6u);
  DynamicWcdsTestPeer::set_via_count(dyn, bridge, 0);

  const geom::Point to{dyn.position(u).x + 0.01, dyn.position(u).y};
  try {
    (void)dyn.move_node(u, to);
    ADD_FAILURE() << "the event's audit missed the dropped sole bridge";
  } catch (const check::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("Theorem 11"), std::string::npos)
        << e.what();
  }
  check::set_audits_enabled(audits_were);
}

// The event contract: an event repairs what its own link changes break,
// starting from an audited state; it does not hunt for other faults in its
// ball.  A dominated node two or three hops from the event node, flipped
// into the MIS, keeps its conflict with its dominator through the event, so
// the event applies and its closing audit throws; the watchdog recovers.
TEST(DynamicWcds, EventsAssumeAnAuditedStart) {
  const bool audits_were = check::set_audits_enabled(true);
  DynamicWcds dyn(deployment(300, 10.0, 4));
  const graph::Graph g = dyn.active_graph();
  // A dominated node two or three hops from u, or kInvalidNode.
  const auto dominated_near = [&](NodeId u) {
    const std::vector<HopCount> hops = graph::bfs_distances(g, u);
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if ((hops[v] == 2 || hops[v] == 3) && !dyn.is_mis_dominator(v)) {
        return v;
      }
    }
    return kInvalidNode;
  };
  NodeId u = 0;
  NodeId corrupt = kInvalidNode;
  while (u < g.node_count() && (corrupt = dominated_near(u)) == kInvalidNode) {
    ++u;
  }
  ASSERT_NE(corrupt, kInvalidNode);
  DynamicWcdsTestPeer::set_mis(dyn, corrupt, true);
  ASSERT_FALSE(dyn.audit().mis_independent);

  const geom::Point to{dyn.position(u).x + 0.05, dyn.position(u).y};
  EXPECT_THROW((void)dyn.move_node(u, to), check::CheckError);
  EXPECT_EQ(dyn.position(u), to);
  EXPECT_FALSE(dyn.audit().ok());
  EXPECT_GT(dyn.watchdog().demoted, 0u);
  EXPECT_TRUE(dyn.audit().ok());
  check::set_audits_enabled(audits_were);
}

// The watchdog's repairing branch.  An MIS bit set on a dominated node far
// from every event breaks independence, and no event repairs it; the
// watchdog drops the MIS and every bridge and seeds them again from
// Algorithm II over the active graph.  With every node active the result
// is a fresh DynamicWcds on the same points; with nodes switched off first
// it is core::algorithm2_components() of the active graph, the inactive
// nodes left out.
TEST(DynamicWcds, WatchdogRebuildsACorruptedBackbone) {
  const testing::AuditsOff audits_off;
  const auto points = deployment(300, 10.0, 4);
  const DynamicWcds fresh(points);
  const graph::Graph g = fresh.active_graph();
  NodeId corrupt = 0;
  while (fresh.is_mis_dominator(corrupt) || g.degree(corrupt) == 0) ++corrupt;
  // Beyond the reach of a switch-off's repair (3-hop balls, plus one hop to
  // the neighbors of a demoted node).
  const std::vector<HopCount> hops = graph::bfs_distances(g, corrupt);
  std::vector<NodeId> far;
  for (NodeId v = 0; v < g.node_count() && far.size() < 4; ++v) {
    if (hops[v] != kUnreachable && hops[v] > 5) far.push_back(v);
  }
  ASSERT_EQ(far.size(), 4u);

  DynamicWcds dyn(points);
  DynamicWcdsTestPeer::set_mis(dyn, corrupt, true);
  ASSERT_FALSE(dyn.audit().ok());
  const RepairReport report = dyn.watchdog();
  EXPECT_EQ(report.demoted, 1u);
  EXPECT_EQ(report.promoted, 0u);
  EXPECT_EQ(report.bridges_changed, 2 * fresh.bridges().size());
  EXPECT_EQ(report.region_size, points.size());
  EXPECT_EQ(report.searched, 0u);
  EXPECT_TRUE(dyn.audit().ok());
  EXPECT_EQ(dyn.dominators(), fresh.dominators());
  EXPECT_EQ(dyn.bridges(), fresh.bridges());
  EXPECT_EQ(dyn.watchdog().region_size, 0u);  // healthy: nothing to do

  DynamicWcds off(points);
  for (const NodeId v : far) (void)off.deactivate(v);
  ASSERT_FALSE(off.is_mis_dominator(corrupt));
  DynamicWcdsTestPeer::set_mis(off, corrupt, true);
  ASSERT_FALSE(off.audit().ok());
  const RepairReport off_report = off.watchdog();
  EXPECT_GT(off_report.demoted, 0u);
  EXPECT_GT(off_report.bridges_changed, 0u);
  EXPECT_EQ(off_report.region_size, points.size());
  EXPECT_TRUE(off.audit().ok());
  const core::Algorithm2Output body =
      core::algorithm2_components(off.active_graph());
  std::vector<NodeId> dominators;
  for (const NodeId u : body.result.dominators) {
    if (off.is_active(u)) dominators.push_back(u);
  }
  for (const NodeId v : far) EXPECT_FALSE(off.is_mis_dominator(v)) << v;
  EXPECT_EQ(off.dominators(), dominators);
  EXPECT_EQ(off.bridges(), testing::forward_rows(body.lists));
}

// The work witness: the nodes an event's bounded searches visit stay within
// a small multiple of the region it repairs, at any n.  Both event balls
// count, so the ratio is at least 1; a fresh 3-hop search from every MIS
// node of the region (about 12x) fails the bound.
TEST(DynamicWcds, SearchedWorkTracksTheRegion) {
  const testing::AuditsOff audits_off;
  for (const std::uint32_t n : {1024U, 16384U}) {
    const auto points = testing::churn_deployment(n, 11);
    DynamicWcds net(points);
    testing::ChurnMix mix(13, points);
    std::size_t searched = 0;
    std::size_t region = 0;
    for (int e = 0; e < 500; ++e) {
      const RepairReport report = testing::apply(net, mix.next(net));
      searched += report.searched;
      region += report.region_size;
    }
    RecordProperty("searched_per_region_n" + std::to_string(n),
                   std::to_string(static_cast<double>(searched) /
                                  static_cast<double>(region)));
    EXPECT_GE(searched, region) << "n = " << n;
    EXPECT_LE(searched, 5 * region) << "n = " << n;
  }
}

// IncrementalUdg's name/slot split after a scripted mix of moves (within a
// cell, across cells and far away), radio off and radio on: the rows equal
// udg::build_udg over the current active positions, every row ascends by
// name, slot_of and name_of are inverse, and no event re-slots a node.
TEST(IncrementalUdg, SlotLayoutHoldsThroughEvents) {
  const auto points = testing::churn_deployment(600, 21, 12.0);
  IncrementalUdg net(points, 1.0);
  const std::size_t n = net.node_count();
  std::vector<NodeId> initial_slot(n);
  for (NodeId u = 0; u < n; ++u) initial_slot[u] = net.slot_of(u);

  geom::Xoshiro256ss rng(23);
  std::vector<bool> active(n, true);
  std::size_t cell_crossings = 0;
  for (int e = 0; e < 400; ++e) {
    const auto u = static_cast<NodeId>(rng.next_below(n));
    const NodeId s = net.slot_of(u);
    const auto kind = rng.next_below(10);
    if (kind == 8) {
      active[u] = !active[u];
      net.set_active(s, active[u]);
    } else {
      geom::Point p = net.position(s);
      const double reach = kind == 9 ? 50.0 : 0.7;
      const geom::Point q{p.x + rng.next_double(-reach, reach),
                          p.y + rng.next_double(-reach, reach)};
      cell_crossings += std::floor(p.x) != std::floor(q.x) ||
                        std::floor(p.y) != std::floor(q.y);
      net.relocate(s, q);
    }
    ASSERT_EQ(net.slot_of(u), s) << "event " << e << " re-slotted " << u;
  }
  EXPECT_GT(cell_crossings, 50U);

  std::vector<geom::Point> now(n);
  for (NodeId u = 0; u < n; ++u) now[u] = net.position(net.slot_of(u));
  std::vector<std::pair<NodeId, NodeId>> want;
  for (const auto& [u, v] : udg::build_udg(now).edges()) {
    if (active[u] && active[v]) want.emplace_back(u, v);
  }
  EXPECT_EQ(net.materialize().edges(), want);
  EXPECT_EQ(net.active_mask(), active);

  for (NodeId s = 0; s < n; ++s) {
    ASSERT_EQ(net.slot_of(net.name_of(s)), s);
    ASSERT_EQ(net.slot_of(net.name_of(s)), initial_slot[net.name_of(s)]);
    const auto row = net.neighbors(s);
    for (std::size_t i = 1; i < row.size(); ++i) {
      ASSERT_LT(net.name_of(row[i - 1]), net.name_of(row[i]))
          << "row of slot " << s;
    }
  }
}

// The constructor takes its rows from one udg::build_udg pass; they must be
// what scan_row gives for the same node, so switching an active node on
// again (a rescan plus a row rewrite) changes no row.  The deployment holds
// co-located points and points exactly `range` apart across cell borders,
// in both axes and for a range other than 1.
TEST(IncrementalUdg, ConstructorRowsEqualRescans) {
  for (const double range : {1.0, 0.5}) {
    std::vector<geom::Point> points =
        testing::churn_deployment(200, 3, 12.0);
    for (auto& p : points) p = {p.x * range, p.y * range};
    // A lattice of cell corners one range apart, each corner doubled, with
    // a point halfway to the next corner; and three copies of a point.
    for (int i = -2; i <= 2; ++i) {
      for (int j = -2; j <= 2; ++j) {
        points.push_back({i * range, j * range});
        points.push_back({i * range, j * range});
        points.push_back({i * range + range / 2, j * range});
      }
    }
    for (int k = 0; k < 3; ++k) points.push_back(points[7]);
    IncrementalUdg net(points, range);
    const std::size_t n = net.node_count();
    std::vector<std::vector<NodeId>> rows(n);
    for (NodeId s = 0; s < n; ++s) {
      rows[s].assign(net.neighbors(s).begin(), net.neighbors(s).end());
    }
    EXPECT_EQ(net.materialize().edges(), udg::build_udg(points, range).edges());
    for (NodeId s = 0; s < n; ++s) {
      net.set_active(s, true);
      for (NodeId t = 0; t < n; ++t) {
        ASSERT_TRUE(std::equal(rows[t].begin(), rows[t].end(),
                               net.neighbors(t).begin(),
                               net.neighbors(t).end()))
            << "range " << range << ": rescan of slot " << s
            << " changed the row of slot " << t;
      }
    }
    // The lattice: corners one range apart are linked, across cell borders.
    const NodeId corner = net.slot_of(200);     // (-2, -2) ranges
    const NodeId right = net.slot_of(200 + 15);  // (-1, -2) ranges
    EXPECT_TRUE(net.has_edge(corner, right));
    EXPECT_TRUE(net.has_edge(corner, net.slot_of(201)));  // co-located
  }
}

}  // namespace
}  // namespace wcds::maintenance
