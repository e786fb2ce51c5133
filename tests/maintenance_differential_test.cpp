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
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "churn_mix.h"
#include "dynamic_wcds_peer.h"
#include "geom/rng.h"
#include "geom/workload.h"
#include "graph/local_bfs.h"
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

  template <class Event>
  void step(const std::string& what, Event&& event) {
    if (::testing::Test::HasFailure()) return;  // report the first mismatch
    const RepairReport got = event(net_);
    const RepairReport want = event(ref_);
    EXPECT_EQ(got.demoted, want.demoted) << what;
    EXPECT_EQ(got.promoted, want.promoted) << what;
    EXPECT_EQ(got.bridges_changed, want.bridges_changed) << what;
    EXPECT_EQ(got.region_size, want.region_size) << what;
    expect_same(what);
  }

  void move(NodeId u, const geom::Point& p) {
    step("move " + std::to_string(u),
         [&](auto& net) { return net.move_node(u, p); });
  }
  void off(NodeId u) {
    step("off " + std::to_string(u),
         [&](auto& net) { return net.deactivate(u); });
  }
  void on(NodeId u) {
    step("on " + std::to_string(u),
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

// `net` holds the MIS and the bridges of `alg2`: the same MIS mask, and one
// bridge per forward 3-hop row with the same via.
void expect_backbone_of(const DynamicWcds& net,
                        const core::Algorithm2Output& alg2,
                        const std::string& what) {
  std::vector<bool> mis(net.node_count());
  for (NodeId u = 0; u < net.node_count(); ++u) {
    mis[u] = net.is_mis_dominator(u);
  }
  EXPECT_EQ(mis, alg2.mis.mask) << what;
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
