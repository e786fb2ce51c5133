// Differential test: the incremental DynamicWcds (IncrementalUdg rows,
// LocalBfs balls, indexed bridges) against the rebuild-everything reference
// it replaced (maintenance_reference.h).  After every event both must hold
// the same MIS, bridges and dominators, report the same RepairReport, and
// the maintained graph must equal udg::build_udg over the active nodes.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "churn_mix.h"
#include "geom/rng.h"
#include "geom/workload.h"
#include "maintenance/crash_schedule.h"
#include "maintenance/dynamic_wcds.h"
#include "maintenance_reference.h"
#include "udg/udg.h"

namespace wcds::testing {
namespace {

using maintenance::DynamicWcds;
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

}  // namespace
}  // namespace wcds::testing
