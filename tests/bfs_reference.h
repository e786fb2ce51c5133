// Test-only oracle for graph::LocalBfs: the std::queue searches that the
// BFS callers in src/ ran before each became a LocalBfs run, kept as they
// were.  bfs_differential_test compares every one of them with its
// counterpart, value for value.
#pragma once

#include <span>
#include <vector>

#include "check/audit.h"
#include "graph/bfs.h"
#include "graph/graph.h"
#include "graph/spanning_tree.h"
#include "graph/types.h"
#include "mis/mis.h"
#include "wcds/resilient.h"
#include "wcds/wcds_result.h"

namespace wcds::testing::reference {

// A queue BFS from `sources` (in order, repeats once) truncated at
// `radius` (kUnreachable: unbounded): per-node distance and discoverer
// (kUnreachable / kInvalidNode outside the ball) and the visit order.
struct Search {
  std::vector<HopCount> dist;
  std::vector<NodeId> parent;
  std::vector<NodeId> order;
};
[[nodiscard]] Search bfs_search(const graph::Graph& g,
                                std::span<const NodeId> sources,
                                HopCount radius);

// graph/bfs.cpp.
[[nodiscard]] std::vector<HopCount> bfs_distances(const graph::Graph& g,
                                                  NodeId source);
[[nodiscard]] HopCount hop_distance(const graph::Graph& g, NodeId source,
                                    NodeId target);
[[nodiscard]] graph::Components connected_components(const graph::Graph& g);

// graph/spanning_tree.cpp (without the children rows).
[[nodiscard]] graph::SpanningTree bfs_tree(const graph::Graph& g,
                                           NodeId root);

// check/audit.cpp: a label BFS per live component, then one weakly induced
// BFS per component from its seed.
[[nodiscard]] check::WcdsSweep sweep_wcds(
    const graph::Graph& g, const std::vector<bool>& mask,
    const std::vector<bool>* live = nullptr,
    mis::Orphans orphans = mis::Orphans::kMustBeDominated);

// baselines/mis_tree_cds.cpp with its m x n table of radius-3 distances.
[[nodiscard]] core::WcdsResult mis_tree_cds(const graph::Graph& g);

// wcds/resilient.cpp with the queue-based fragment labels, component
// labels and ear search in patch_crash_of (no metrics recorded).
core::ResilienceReport augment_resilience(const graph::Graph& g,
                                          core::WcdsResult& result,
                                          const core::ResilienceSpec& spec);

}  // namespace wcds::testing::reference
