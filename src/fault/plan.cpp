#include "fault/plan.h"

#include "check/check.h"

namespace wcds::fault {

void Plan::validate(std::size_t node_count) const {
  // Written so that NaN fails every range test.
  const auto valid = [](double p_drop, double p_duplicate) {
    return p_drop >= 0.0 && p_drop < 1.0 && p_duplicate >= 0.0 &&
           p_duplicate <= 1.0;
  };
  WCDS_REQUIRE(valid(drop, duplicate),
               "fault::Plan: drop must be in [0, 1) and duplicate in [0, 1], "
               "got " << drop << " and " << duplicate);
  for (const LinkOverride& entry : link_overrides) {
    WCDS_REQUIRE(valid(entry.drop, entry.duplicate),
                 "fault::Plan: link override probability out of range");
  }
  for (const CrashWindow& window : crashes) {
    WCDS_REQUIRE(window.node < node_count,
                 "fault::Plan: crash window names node "
                     << window.node << " outside the topology");
  }
}

Plan Plan::lossy(double drop, std::uint64_t seed) {
  Plan plan;
  plan.drop = drop;
  plan.seed = seed;
  return plan;
}

Plan Plan::chaos(double drop, double duplicate, sim::SimTime max_jitter,
                 std::uint64_t seed) {
  Plan plan;
  plan.drop = drop;
  plan.duplicate = duplicate;
  plan.max_jitter = max_jitter;
  plan.seed = seed;
  return plan;
}

Plan& Plan::crash(NodeId node, sim::SimTime down_from, sim::SimTime up_at) {
  WCDS_REQUIRE(down_from < up_at,
               "fault::Plan: empty crash window for node " << node);
  crashes.push_back({node, down_from, up_at});
  return *this;
}

std::size_t Plan::blackout_region(std::span<const geom::Point> points,
                                  const geom::Point& center, double radius,
                                  sim::SimTime down_from, sim::SimTime up_at) {
  std::size_t covered = 0;
  for (NodeId u = 0; u < points.size(); ++u) {
    if (geom::within_range(points[u], center, radius)) {
      crash(u, down_from, up_at);
      ++covered;
    }
  }
  return covered;
}

}  // namespace wcds::fault
