// Breadth-first search primitives: hop distances, components, eccentricity.
//
// Hop ("topological") distance is the metric used throughout the paper for
// the MIS structural lemmas and for the spanner's topological dilation.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace wcds::graph {

// Hop distance from `source` to every node; kUnreachable where disconnected.
[[nodiscard]] std::vector<HopCount> bfs_distances(const Graph& g, NodeId source);

// Hop distance from the nearest of `sources` to every node.
[[nodiscard]] std::vector<HopCount> multi_source_bfs(
    const Graph& g, std::span<const NodeId> sources);

// Hop distance between a single pair; kUnreachable if disconnected.  Early-
// exits as soon as `target` is settled.
[[nodiscard]] HopCount hop_distance(const Graph& g, NodeId source, NodeId target);

// Component label per node (labels are 0..k-1 in discovery order).
struct Components {
  std::vector<std::uint32_t> label;
  std::uint32_t count = 0;
};
[[nodiscard]] Components connected_components(const Graph& g);

[[nodiscard]] bool is_connected(const Graph& g);

// Max finite hop distance from `source` (its eccentricity within its
// component).
[[nodiscard]] HopCount eccentricity(const Graph& g, NodeId source);

// All nodes within `radius` hops of `center`, including the center, in
// ascending order.  Runs a graph::LocalBfs, so callers that take many balls
// should hold one of those instead.
[[nodiscard]] std::vector<NodeId> ball(const Graph& g, NodeId center,
                                       HopCount radius);

}  // namespace wcds::graph
