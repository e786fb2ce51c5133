#include "baselines/greedy_wcds.h"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/bfs.h"

namespace wcds::baselines {

using core::NodeColor;
using core::WcdsResult;

WcdsResult greedy_wcds(const graph::Graph& g) {
  const std::size_t n = g.node_count();
  if (n == 0) throw std::invalid_argument("greedy_wcds: empty graph");
  if (!graph::is_connected(g)) {
    throw std::invalid_argument("greedy_wcds: graph must be connected");
  }

  std::vector<NodeColor> color(n, NodeColor::kWhite);
  std::vector<bool> in_set(n, false);
  std::size_t white_remaining = n;

  const auto gain_of = [&](NodeId v) {
    std::size_t gain = color[v] == NodeColor::kWhite ? 1 : 0;
    for (NodeId w : g.neighbors(v)) {
      if (color[w] == NodeColor::kWhite) ++gain;
    }
    return gain;
  };
  const auto adjacent_to_dominated = [&](NodeId v) {
    for (NodeId w : g.neighbors(v)) {
      if (color[w] != NodeColor::kWhite) return true;
    }
    return false;
  };
  const auto take = [&](NodeId v) {
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

  // First pick: max closed-neighborhood coverage, ties to lower id.
  {
    NodeId best = 0;
    std::size_t best_gain = gain_of(0);
    for (NodeId v = 1; v < n; ++v) {
      const std::size_t gv = gain_of(v);
      if (gv > best_gain) {
        best = v;
        best_gain = gv;
      }
    }
    take(best);
  }

  while (white_remaining > 0) {
    NodeId best = kInvalidNode;
    std::size_t best_gain = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (in_set[v]) continue;
      const bool candidate = color[v] == NodeColor::kGray ||
                             (color[v] == NodeColor::kWhite &&
                              adjacent_to_dominated(v));
      if (!candidate) continue;
      const std::size_t gv = gain_of(v);
      // Ascending scan: the lowest-id candidate wins ties automatically.
      if (gv > best_gain) {
        best = v;
        best_gain = gv;
      }
    }
    if (best == kInvalidNode) {
      throw std::logic_error("greedy_wcds: stalled on a connected graph");
    }
    take(best);
  }

  // A pure-greedy set has no MIS: every member is additional.
  std::vector<NodeId> members;
  for (NodeId v = 0; v < n; ++v) {
    if (in_set[v]) members.push_back(v);
  }
  return WcdsResult::from_members(n, {}, std::move(members));
}

}  // namespace wcds::baselines
