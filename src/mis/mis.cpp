#include "mis/mis.h"

#include <algorithm>
#include <cstdint>
#include <queue>
#include <utility>

#include "check/check.h"

namespace wcds::mis {

MisResult greedy_mis(const graph::Graph& g, std::span<const Rank> ranks) {
  WCDS_REQUIRE(ranks.size() == g.node_count(),
               "greedy_mis: rank vector size mismatch");
  MisResult result;
  result.mask.assign(g.node_count(), false);
  std::vector<bool> removed(g.node_count(), false);
  for (NodeId u : order_by_rank(ranks)) {
    if (removed[u]) continue;
    result.mask[u] = true;
    result.members.push_back(u);
    removed[u] = true;
    for (NodeId v : g.neighbors(u)) removed[v] = true;
  }
  WCDS_DCHECK(is_maximal_independent_set(g, result.mask),
              "greedy_mis: construction is not a maximal independent set");
  return result;
}

MisResult greedy_mis_by_id(const graph::Graph& g) {
  return greedy_mis(g, id_ranking(g.node_count()));
}

MisResult greedy_mis_max_degree(const graph::Graph& g) {
  const std::size_t n = g.node_count();
  MisResult result;
  result.mask.assign(n, false);
  std::vector<bool> removed(n, false);
  std::vector<std::uint32_t> white_degree(n);
  for (NodeId u = 0; u < n; ++u) {
    white_degree[u] = static_cast<std::uint32_t>(g.degree(u));
  }
  // Lazy-deletion max-heap keyed by (white degree, lower id wins ties).
  using Entry = std::pair<std::uint32_t, NodeId>;
  const auto cmp = [](const Entry& a, const Entry& b) {
    if (a.first != b.first) return a.first < b.first;  // max white degree first
    return a.second > b.second;                        // then min id
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(cmp)> heap(cmp);
  for (NodeId u = 0; u < n; ++u) heap.emplace(white_degree[u], u);

  const auto decrement_around = [&](NodeId w) {
    for (NodeId x : g.neighbors(w)) {
      if (!removed[x] && white_degree[x] > 0) {
        --white_degree[x];
        heap.emplace(white_degree[x], x);
      }
    }
  };

  while (!heap.empty()) {
    const auto [deg, u] = heap.top();
    heap.pop();
    if (removed[u] || deg != white_degree[u]) continue;  // stale
    result.mask[u] = true;
    result.members.push_back(u);
    removed[u] = true;
    decrement_around(u);
    for (NodeId v : g.neighbors(u)) {
      if (!removed[v]) {
        removed[v] = true;
        decrement_around(v);
      }
    }
  }
  return result;
}

bool is_independent_set(const graph::Graph& g, const std::vector<bool>& mask) {
  WCDS_REQUIRE(mask.size() == g.node_count(),
               "is_independent_set: mask size mismatch");
  for (NodeId u = 0; u < g.node_count(); ++u) {
    if (!mask[u]) continue;
    for (NodeId v : g.neighbors(u)) {
      if (mask[v]) return false;
    }
  }
  return true;
}

NodeId first_undominated(const graph::Graph& g, const std::vector<bool>& mask,
                         const std::vector<bool>* live, Orphans orphans) {
  const std::size_t n = g.node_count();
  WCDS_REQUIRE(mask.size() == n, "first_undominated: mask size mismatch");
  WCDS_REQUIRE(live == nullptr || live->size() == n,
               "first_undominated: live mask size mismatch");
  const auto is_live = [&](NodeId u) { return live == nullptr || (*live)[u]; };
  for (NodeId u = 0; u < n; ++u) {
    if (!is_live(u) || mask[u]) continue;
    bool orphan = true;
    bool dominated = false;
    for (const NodeId v : g.neighbors(u)) {
      if (!is_live(v)) continue;
      orphan = false;
      dominated = mask[v];
      if (dominated) break;
    }
    if (!dominated && !(orphan && orphans == Orphans::kExempt)) return u;
  }
  return kInvalidNode;
}

bool is_dominating_set(const graph::Graph& g, const std::vector<bool>& mask) {
  return first_undominated(g, mask) == kInvalidNode;
}

bool is_maximal_independent_set(const graph::Graph& g,
                                const std::vector<bool>& mask) {
  return is_independent_set(g, mask) && is_dominating_set(g, mask);
}

}  // namespace wcds::mis
