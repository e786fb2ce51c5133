#include "wcds/algorithm2.h"

#include <algorithm>
#include <vector>

#include "check/audit.h"
#include "check/check.h"
#include "graph/bfs.h"
#include "obs/recorder.h"

namespace wcds::core {
namespace {

// True iff `lists.one_hop[u]` (sorted) contains `d`.
bool in_one_hop(const DominatorLists& lists, NodeId u, NodeId d) {
  const auto& row = lists.one_hop[u];
  return std::binary_search(row.begin(), row.end(), d);
}

bool in_two_hop(const DominatorLists& lists, NodeId u, NodeId d) {
  return std::any_of(lists.two_hop[u].begin(), lists.two_hop[u].end(),
                     [&](const TwoHopEntry& e) { return e.dom == d; });
}

}  // namespace

DominatorLists compute_dominator_lists(const graph::Graph& g,
                                       const mis::MisResult& s) {
  const std::size_t n = g.node_count();
  DominatorLists lists;
  lists.one_hop.assign(n, {});
  lists.two_hop.assign(n, {});
  lists.three_hop.assign(n, {});

  // Rows are sized exactly before they are filled: one allocation per
  // non-empty row.
  for (NodeId u = 0; u < n; ++u) {
    const auto row = g.neighbors(u);
    auto& out = lists.one_hop[u];
    out.reserve(static_cast<std::size_t>(
        std::count_if(row.begin(), row.end(),
                      [&](NodeId v) { return s.mask[v]; })));
    for (NodeId v : row) {
      if (s.mask[v]) out.push_back(v);
    }
    // neighbors() is sorted, so one_hop is sorted.
  }

  // A dominator d is in u's 2HopDomList iff d is not u, not adjacent to u,
  // and reachable through some neighbor v of u.  One entry per dominator,
  // with the smallest intermediate, mirroring a deterministic run of the
  // distributed "1-HOP-DOMINATORS" exchange.
  std::vector<TwoHopEntry> found;  // reused across nodes
  for (NodeId u = 0; u < n; ++u) {
    found.clear();
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
    lists.two_hop[u].assign(found.begin(), found.end());
  }
  return lists;
}

Algorithm2Output algorithm2(const graph::Graph& g,
                            const Algorithm2Options& options) {
  WCDS_REQUIRE(g.node_count() > 0, "algorithm2: empty graph");
  WCDS_REQUIRE(graph::is_connected(g), "algorithm2: graph must be connected");
  obs::Recorder* rec = obs::global_recorder();
  obs::PhaseTimer total_timer(rec, "alg2_central/total");

  Algorithm2Output out;
  out.mis = mis::greedy_mis_by_id(g);
  out.lists = compute_dominator_lists(g, out.mis);

  const std::size_t n = g.node_count();
  std::vector<bool> additional(n, false);

  // For each MIS-dominator u and each MIS-dominator w exactly three hops
  // away with id(u) < id(w), pick one intermediate path u-v-x-w and promote
  // v to additional-dominator.  Candidates come from the 2HopDomLists of u's
  // neighbors, exactly as the distributed 2-HOP-DOMINATORS exchange surfaces
  // them.
  std::vector<NodeId> mis_sorted = out.mis.members;
  std::sort(mis_sorted.begin(), mis_sorted.end());
  for (NodeId u : mis_sorted) {
    // Collect candidates per 3-hop dominator w: pairs (v, x).
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
      // Choose the intermediate for the pair (u, w) among candidates[i..j).
      std::size_t pick = i;
      if (options.selection ==
          Algorithm2Options::Selection::kReuseIntermediates) {
        for (std::size_t k = i; k < j; ++k) {
          if (additional[candidates[k].v]) {
            pick = k;
            break;
          }
        }
      }
      const Candidate& c = candidates[pick];
      WCDS_DCHECK(g.has_edge(u, c.v) && g.has_edge(c.v, c.x) &&
                      g.has_edge(c.x, c.w),
                  "algorithm2: chosen bridge " << u << "-" << c.v << "-" << c.x
                                               << "-" << c.w
                                               << " is not a 3-hop path");
      additional[c.v] = true;
      out.lists.three_hop[u].push_back({c.w, c.v, c.x});
      // The ADDITIONAL-DOMINATOR confirmation gives w the reverse entry.
      out.lists.three_hop[c.w].push_back({u, c.x, c.v});
      i = j;
    }
  }

  WcdsResult& r = out.result;
  r.mask.assign(n, false);
  r.color.assign(n, NodeColor::kGray);
  for (NodeId u : out.mis.members) {
    r.mask[u] = true;
    r.mis_dominators.push_back(u);
  }
  std::sort(r.mis_dominators.begin(), r.mis_dominators.end());
  for (NodeId v = 0; v < n; ++v) {
    if (additional[v]) {
      r.mask[v] = true;
      r.additional_dominators.push_back(v);
    }
  }
  for (NodeId u = 0; u < n; ++u) {
    if (r.mask[u]) {
      r.dominators.push_back(u);
      r.color[u] = NodeColor::kBlack;
    }
  }

  if (rec != nullptr) {
    auto& metrics = rec->metrics();
    metrics.add("alg2_central/runs");
    metrics.observe("alg2_central/wcds_size", static_cast<double>(r.size()));
    metrics.observe("alg2_central/mis_size",
                    static_cast<double>(r.mis_dominators.size()));
    metrics.observe("alg2_central/additional_size",
                    static_cast<double>(r.additional_dominators.size()));
  }

  // Debug/test tripwire: the ID-ranked MIS plus its bridge set must satisfy
  // Lemma 3 and the Section 1 WCDS property.
  if (check::audits_enabled()) check::audit_invariants(g, r);
  return out;
}

}  // namespace wcds::core
