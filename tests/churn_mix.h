// The churn event mix of the whole-path benchmark's `churn` workload, for
// tests that drive maintenance::DynamicWcds (and its test-only reference)
// the way the benchmark does: 80% move a node by up to `move_radius` per
// axis, clamped to the deployment's bounding box; 10% switch a node off;
// 10% switch the most recently switched-off node back on.  A pure function
// of the seed and of the network state it reads (positions, on/off flags).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "geom/point.h"
#include "geom/rng.h"
#include "geom/workload.h"
#include "graph/bfs.h"
#include "graph/types.h"
#include "maintenance/dynamic_wcds.h"
#include "udg/udg.h"

namespace wcds::testing {

// A connected uniform deployment with the benchmark's expected degree.
inline std::vector<geom::Point> churn_deployment(std::uint32_t n,
                                                 std::uint64_t seed,
                                                 double degree = 16.0) {
  const double side = geom::side_for_expected_degree(n, degree);
  for (std::uint64_t attempt = 0;; ++attempt) {
    auto points = geom::uniform_square(n, side, seed + attempt);
    if (graph::is_connected(udg::build_udg(points))) return points;
  }
}

struct ChurnEvent {
  enum class Kind { kMove, kOff, kOn };
  Kind kind = Kind::kMove;
  NodeId node = kInvalidNode;
  geom::Point to;  // kMove only
};

class ChurnMix {
 public:
  ChurnMix(std::uint64_t seed, const std::vector<geom::Point>& points,
           double move_radius = 0.5)
      : rng_(seed), box_{points.front(), points.front()},
        move_radius_(move_radius) {
    for (const auto& p : points) box_.expand(p);
  }

  // Draws the next event against `net`'s current state.
  ChurnEvent next(const maintenance::DynamicWcds& net) {
    const auto kind = rng_.next_below(10);
    if (kind == 9 && !off_.empty()) {
      const NodeId u = off_.back();
      off_.pop_back();
      return {ChurnEvent::Kind::kOn, u, {}};
    }
    const auto u = static_cast<NodeId>(rng_.next_below(net.node_count()));
    if (kind == 8 && net.is_active(u)) {
      off_.push_back(u);
      return {ChurnEvent::Kind::kOff, u, {}};
    }
    geom::Point p = net.position(u);
    p.x = std::clamp(p.x + rng_.next_double(-move_radius_, move_radius_),
                     box_.min.x, box_.max.x);
    p.y = std::clamp(p.y + rng_.next_double(-move_radius_, move_radius_),
                     box_.min.y, box_.max.y);
    return {ChurnEvent::Kind::kMove, u, p};
  }

 private:
  geom::Xoshiro256ss rng_;
  geom::BoundingBox box_;
  double move_radius_;
  std::vector<NodeId> off_;
};

// Applies `event` to any network with the DynamicWcds event interface.
template <class Net>
maintenance::RepairReport apply(Net& net, const ChurnEvent& event) {
  switch (event.kind) {
    case ChurnEvent::Kind::kOff:
      return net.deactivate(event.node);
    case ChurnEvent::Kind::kOn:
      return net.activate(event.node);
    case ChurnEvent::Kind::kMove:
      break;
  }
  return net.move_node(event.node, event.to);
}

}  // namespace wcds::testing
