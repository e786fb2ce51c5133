// Breadth-first search primitives: hop distances, components, eccentricity.
//
// Hop ("topological") distance is the metric used throughout the paper for
// the MIS structural lemmas and for the spanner's topological dilation.
// Every search here is a graph::LocalBfs run (graph/local_bfs.h); callers
// that search many times from one place should hold a LocalBfs instead.
#pragma once

#include <vector>

#include "graph/graph.h"
#include "graph/local_bfs.h"
#include "graph/types.h"

namespace wcds::graph {

// Hop distance from `source` to every node; kUnreachable where disconnected.
[[nodiscard]] std::vector<HopCount> bfs_distances(const Graph& g, NodeId source);

// Hop distance between a single pair; kUnreachable if disconnected.  Stops
// discovering as soon as `target` is found.
[[nodiscard]] HopCount hop_distance(const Graph& g, NodeId source, NodeId target);

// Component label per node (labels are 0..k-1 in discovery order; a node no
// run reaches keeps kInvalidNode).
struct Components {
  std::vector<std::uint32_t> label;
  std::uint32_t count = 0;
};
[[nodiscard]] Components connected_components(const Graph& g);

// Components over a subgraph: in ascending ID, every node that `start`
// accepts and no earlier run reached starts a run of `bfs` over the edges
// `admit(u, v)` accepts, and everything that run reaches takes the next
// label.  `admit` must be symmetric, so no run reaches an earlier one's
// nodes.  connected_components is the case that accepts everything.
template <class Start, class Admit>
[[nodiscard]] Components label_components(const Graph& g, LocalBfs& bfs,
                                          Start&& start, Admit&& admit) {
  Components result;
  result.label.assign(g.node_count(), kInvalidNode);
  for (NodeId s = 0; s < g.node_count(); ++s) {
    if (result.label[s] != kInvalidNode || !start(s)) continue;
    for (const NodeId v : bfs.run(g, s, kUnreachable, admit)) {
      result.label[v] = result.count;
    }
    ++result.count;
  }
  return result;
}

[[nodiscard]] bool is_connected(const Graph& g);

// Max finite hop distance from `source` (its eccentricity within its
// component).
[[nodiscard]] HopCount eccentricity(const Graph& g, NodeId source);

}  // namespace wcds::graph
