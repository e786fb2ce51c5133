// Shared helpers for the test suite.
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <numbers>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "geom/point.h"
#include "geom/workload.h"
#include "graph/bfs.h"
#include "graph/graph.h"
#include "udg/udg.h"
#include "wcds/algorithm2.h"

namespace wcds::testing {

struct Instance {
  std::vector<geom::Point> points;
  graph::Graph g;
};

// A *connected* random UDG with the requested expected degree; bumps the
// seed until the instance is connected (dense deployments almost always are).
inline Instance connected_udg(std::uint32_t count, double expected_degree,
                              std::uint64_t seed) {
  double side = geom::side_for_expected_degree(count, expected_degree);
  for (std::uint64_t attempt = 0; attempt < 256; ++attempt) {
    Instance inst;
    inst.points = geom::uniform_square(count, side, seed + attempt);
    inst.g = udg::build_udg(inst.points);
    if (graph::is_connected(inst.g)) return inst;
    side *= 0.99;  // sparse targets sit near the connectivity threshold
  }
  throw std::runtime_error(
      "connected_udg: no connected instance found; density too low");
}

// A *connected* deployment of `kind` at roughly `degree` expected
// neighbors: the side starts where the family's area gives that density and
// shrinks 3% per disconnected draw, so the instance is a pure function of
// its arguments.
inline Instance connected_workload_instance(geom::WorkloadKind kind,
                                            std::uint32_t count, double degree,
                                            std::uint64_t seed) {
  geom::WorkloadParams params;
  params.kind = kind;
  params.count = count;
  params.seed = seed;
  // Area per unit of side^2 for each family (corridor: side x aspect*side;
  // ring: the annulus of outer radius side / 2).
  double area_factor = 1.0;
  if (kind == geom::WorkloadKind::kCorridor) area_factor = params.aspect;
  if (kind == geom::WorkloadKind::kRing) {
    area_factor = std::numbers::pi / 4.0 *
                  (1.0 - params.ring_inner * params.ring_inner);
  }
  params.side = std::sqrt(count * std::numbers::pi / (degree * area_factor));
  for (int attempt = 0; attempt < 400; ++attempt) {
    Instance inst;
    inst.points = geom::generate(params);
    inst.g = udg::build_udg(inst.points);
    if (graph::is_connected(inst.g)) return inst;
    params.side *= 0.97;
  }
  throw std::runtime_error("connected_workload: no connected " +
                           geom::to_string(kind) + " instance");
}

// The graph of connected_workload_instance().
inline graph::Graph connected_workload(geom::WorkloadKind kind,
                                       std::uint32_t count, double degree,
                                       std::uint64_t seed) {
  return connected_workload_instance(kind, count, degree, seed).g;
}

// Algorithm II's forward 3-hop rows (u < dom) as DynamicWcds::bridges()
// lists them: (u, dom) -> via1, the additional-dominator next to u.
inline std::map<std::pair<NodeId, NodeId>, NodeId> forward_rows(
    const core::DominatorLists& lists) {
  std::map<std::pair<NodeId, NodeId>, NodeId> rows;
  for (NodeId u = 0; u < lists.node_count(); ++u) {
    for (const core::ThreeHopEntry& e : lists.three_hop(u)) {
      if (u < e.dom) rows.emplace(std::pair{u, e.dom}, e.via1);
    }
  }
  return rows;
}

// A row of a flat table (graph::FlatRows, core::DominatorLists) as a
// vector, for EXPECT_EQ against a literal or another container.
template <typename T>
std::vector<T> to_vector(std::span<const T> row) {
  return std::vector<T>(row.begin(), row.end());
}

// The paper's Figure 2 example shape: a 9-node graph whose WCDS is {1, 2}.
// Node 1 and 2 are adjacent hubs; 1 dominates {3, 4, 5}, 2 dominates
// {6, 7, 8}, and node 0 hangs off node 3's hub... kept simple: two adjacent
// centers each with three private leaves plus one shared leaf.
inline graph::Graph figure2_graph() {
  return graph::from_edges(9, {
                                  {1, 2},  // the two dominators
                                  {1, 3},
                                  {1, 4},
                                  {1, 5},
                                  {2, 6},
                                  {2, 7},
                                  {2, 8},
                                  {1, 0},
                                  {2, 0},  // shared leaf
                              });
}

}  // namespace wcds::testing
