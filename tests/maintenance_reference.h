// Test-only oracle for maintenance::DynamicWcds: the rebuild-everything
// implementation it replaced.  Every event recomputes the whole UDG with
// udg::build_udg and every bridge pass scans all bridges and n-sized
// distance arrays, so it is O(n) per event, but its logic is the plain
// statement of the repair rules.  maintenance_differential_test checks the
// incremental implementation against it event by event.
#pragma once

#include <map>
#include <utility>
#include <vector>

#include "geom/point.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "maintenance/dynamic_wcds.h"

namespace wcds::testing {

// The bridge search DynamicWcds::row_via(a, b) replaced: on a graph with
// ascending rows, the smallest v in N(a) on a path a-v-x-b, or kInvalidNode
// when there is none or a and b share a neighbor.  One sorted merge walk of
// N(b) against N(a), then against N(v) for each v in N(a).
[[nodiscard]] NodeId reference_row_via(const graph::Graph& g, NodeId a,
                                       NodeId b);

class ReferenceDynamicWcds {
 public:
  explicit ReferenceDynamicWcds(std::vector<geom::Point> points,
                                double range = 1.0);

  maintenance::RepairReport move_node(NodeId u, const geom::Point& destination);
  maintenance::RepairReport deactivate(NodeId u);
  maintenance::RepairReport activate(NodeId u);
  maintenance::RepairReport watchdog();

  [[nodiscard]] const graph::Graph& active_graph() const { return graph_; }
  [[nodiscard]] const std::vector<bool>& mis_mask() const { return mis_; }
  [[nodiscard]] const std::map<std::pair<NodeId, NodeId>, NodeId>& bridges()
      const {
    return bridges_;
  }
  [[nodiscard]] std::vector<NodeId> dominators() const;
  [[nodiscard]] maintenance::Audit audit() const;

 private:
  void rebuild_graph();
  maintenance::RepairReport repair(const std::vector<NodeId>& seeds,
                                   std::vector<NodeId> old_region);
  std::size_t rebridge(const std::vector<NodeId>& mis_nodes);
  [[nodiscard]] std::vector<NodeId> three_hop_ball(NodeId center) const;
  [[nodiscard]] bool bridge_valid(NodeId a, NodeId b, NodeId v) const;

  std::vector<geom::Point> points_;
  std::vector<bool> active_;
  double range_;
  graph::Graph graph_;
  std::vector<bool> mis_;
  std::map<std::pair<NodeId, NodeId>, NodeId> bridges_;
};

}  // namespace wcds::testing
