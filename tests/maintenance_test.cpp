// Dynamic WCDS maintenance: invariants after every mobility event, locality
// of repairs.
#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "churn_mix.h"
#include "geom/rng.h"
#include "geom/workload.h"
#include "maintenance/crash_schedule.h"
#include "maintenance/dynamic_wcds.h"

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

}  // namespace
}  // namespace wcds::maintenance
