// Sole bridges: backbone nodes that are the only middle dominator of some
// 3-hop MIS pair.  Dropping one breaks Theorem 11's local certificate for
// that pair, so tests drop one on purpose instead of a random additional
// dominator, which often leaves every pair bridged by another.
#pragma once

#include <algorithm>
#include <vector>

#include "graph/graph.h"
#include "graph/local_bfs.h"
#include "graph/types.h"
#include "wcds/wcds_result.h"

namespace wcds::testing {

struct SoleBridge {
  NodeId a = kInvalidNode;  // the MIS pair, a < b, 3 hops apart in g
  NodeId b = kInvalidNode;
  NodeId bridge = kInvalidNode;  // the only backbone node on a middle edge
};

// Every such pair of `r` over g, in order of a, then b's BFS order.
inline std::vector<SoleBridge> sole_bridges(const graph::Graph& g,
                                            const core::WcdsResult& r) {
  std::vector<SoleBridge> found;
  graph::LocalBfs bfs;
  std::vector<NodeId> middles;
  for (const NodeId a : r.mis_dominators) {
    for (const NodeId b : bfs.run(g, a, 3)) {
      if (b < a || bfs.distance(b) != 3 ||
          !std::binary_search(r.mis_dominators.begin(),
                              r.mis_dominators.end(), b)) {
        continue;
      }
      middles.clear();
      for (const NodeId x : g.neighbors(a)) {
        for (const NodeId y : g.neighbors(x)) {
          if (!g.has_edge(y, b)) continue;
          if (r.mask[x]) middles.push_back(x);
          if (r.mask[y]) middles.push_back(y);
        }
      }
      std::sort(middles.begin(), middles.end());
      middles.erase(std::unique(middles.begin(), middles.end()),
                    middles.end());
      if (middles.size() == 1) found.push_back({a, b, middles.front()});
    }
  }
  return found;
}

// `r` with additional dominator v dropped from the backbone.
inline core::WcdsResult without(core::WcdsResult r, NodeId v) {
  r.mask[v] = false;
  std::erase(r.dominators, v);
  std::erase(r.additional_dominators, v);
  return r;
}

}  // namespace wcds::testing
