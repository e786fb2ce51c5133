#include "algorithm2_reference.h"

#include <algorithm>

namespace wcds::testing::reference {
namespace {

using core::ThreeHopEntry;
using core::TwoHopEntry;

// True iff `lists.one_hop[u]` (sorted) contains `d`.
bool in_one_hop(const NestedDominatorLists& lists, NodeId u, NodeId d) {
  const auto& row = lists.one_hop[u];
  return std::binary_search(row.begin(), row.end(), d);
}

bool in_two_hop(const NestedDominatorLists& lists, NodeId u, NodeId d) {
  return std::any_of(lists.two_hop[u].begin(), lists.two_hop[u].end(),
                     [&](const TwoHopEntry& e) { return e.dom == d; });
}

}  // namespace

NestedDominatorLists compute_dominator_lists(const graph::Graph& g,
                                             const mis::MisResult& s) {
  const std::size_t n = g.node_count();
  NestedDominatorLists lists;
  lists.one_hop.assign(n, {});
  lists.two_hop.assign(n, {});
  lists.three_hop.assign(n, {});

  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (s.mask[v]) lists.one_hop[u].push_back(v);
    }
    // neighbors() is sorted, so one_hop is sorted.
  }

  // A dominator d is in u's 2HopDomList iff d is not u, not adjacent to u,
  // and reachable through some neighbor v of u.  One entry per dominator,
  // with the smallest intermediate.
  for (NodeId u = 0; u < n; ++u) {
    std::vector<TwoHopEntry> found;
    for (NodeId v : g.neighbors(u)) {
      for (NodeId d : lists.one_hop[v]) {
        if (d == u || in_one_hop(lists, u, d)) continue;
        found.push_back({d, v});
      }
    }
    std::sort(found.begin(), found.end());
    // Keep the first (smallest via) entry per dominator.
    found.erase(std::unique(found.begin(), found.end(),
                            [](const TwoHopEntry& a, const TwoHopEntry& b) {
                              return a.dom == b.dom;
                            }),
                found.end());
    lists.two_hop[u] = std::move(found);
  }
  return lists;
}

Algorithm2Lists algorithm2_lists(const graph::Graph& g,
                                 core::Algorithm2Options::Selection selection) {
  const mis::MisResult mis = mis::greedy_mis_by_id(g);
  Algorithm2Lists out;
  out.lists = compute_dominator_lists(g, mis);
  const std::size_t n = g.node_count();
  out.additional.assign(n, false);

  // For each MIS-dominator u and each MIS-dominator w exactly three hops
  // away with id(u) < id(w), pick one intermediate path u-v-x-w and promote
  // v to additional-dominator.
  std::vector<NodeId> mis_sorted = mis.members;
  std::sort(mis_sorted.begin(), mis_sorted.end());
  for (NodeId u : mis_sorted) {
    struct Candidate {
      NodeId w, v, x;
    };
    std::vector<Candidate> candidates;
    for (NodeId v : g.neighbors(u)) {
      for (const TwoHopEntry& e : out.lists.two_hop[v]) {
        const NodeId w = e.dom;
        if (w == u || u >= w) continue;
        if (in_one_hop(out.lists, u, w) || in_two_hop(out.lists, u, w)) {
          continue;  // closer than three hops
        }
        candidates.push_back({w, v, e.via});
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.w != b.w) return a.w < b.w;
                if (a.v != b.v) return a.v < b.v;
                return a.x < b.x;
              });
    for (std::size_t i = 0; i < candidates.size();) {
      const NodeId w = candidates[i].w;
      std::size_t j = i;
      while (j < candidates.size() && candidates[j].w == w) ++j;
      std::size_t pick = i;
      if (selection == core::Algorithm2Options::Selection::kReuseIntermediates) {
        for (std::size_t k = i; k < j; ++k) {
          if (out.additional[candidates[k].v]) {
            pick = k;
            break;
          }
        }
      }
      const Candidate& c = candidates[pick];
      out.additional[c.v] = true;
      out.lists.three_hop[u].push_back({c.w, c.v, c.x});
      out.lists.three_hop[c.w].push_back({u, c.x, c.v});
      i = j;
    }
  }
  return out;
}

}  // namespace wcds::testing::reference
