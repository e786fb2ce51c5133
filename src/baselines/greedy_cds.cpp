#include "baselines/greedy_cds.h"

#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/bfs.h"

namespace wcds::baselines {

using core::NodeColor;
using core::WcdsResult;

WcdsResult greedy_cds(const graph::Graph& g) {
  const std::size_t n = g.node_count();
  if (n == 0) throw std::invalid_argument("greedy_cds: empty graph");
  if (!graph::is_connected(g)) {
    throw std::invalid_argument("greedy_cds: graph must be connected");
  }

  std::vector<NodeColor> color(n, NodeColor::kWhite);
  std::vector<bool> in_set(n, false);
  std::size_t white_remaining = n;

  const auto white_neighbors = [&](NodeId v) {
    std::size_t count = 0;
    for (NodeId w : g.neighbors(v)) {
      if (color[w] == NodeColor::kWhite) ++count;
    }
    return count;
  };
  const auto blacken = [&](NodeId v) {
    if (color[v] == NodeColor::kWhite) --white_remaining;
    color[v] = NodeColor::kBlack;
    in_set[v] = true;
    for (NodeId w : g.neighbors(v)) {
      if (color[w] == NodeColor::kWhite) {
        color[w] = NodeColor::kGray;
        --white_remaining;
      }
    }
  };

  // Seed: the max-degree node (ties to lower id).
  {
    NodeId seed = 0;
    for (NodeId v = 1; v < n; ++v) {
      if (g.degree(v) > g.degree(seed)) seed = v;
    }
    blacken(seed);
  }

  while (white_remaining > 0) {
    NodeId best = kInvalidNode;
    std::size_t best_gain = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (color[v] != NodeColor::kGray || in_set[v]) continue;
      const std::size_t gv = white_neighbors(v);
      if (best == kInvalidNode || gv > best_gain) {
        best = v;
        best_gain = gv;
      }
    }
    if (best == kInvalidNode || best_gain == 0) {
      // On a connected graph some gray node always borders a white node.
      if (best == kInvalidNode) {
        throw std::logic_error("greedy_cds: stalled on a connected graph");
      }
      // best_gain can only be 0 if no gray node has a white neighbor, which
      // contradicts connectivity while whites remain.
      throw std::logic_error("greedy_cds: no progress possible");
    }
    blacken(best);
  }

  // A pure-greedy set has no MIS: every member is additional.
  std::vector<NodeId> members;
  for (NodeId v = 0; v < n; ++v) {
    if (in_set[v]) members.push_back(v);
  }
  return WcdsResult::from_members(n, {}, std::move(members));
}

}  // namespace wcds::baselines
