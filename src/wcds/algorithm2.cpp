#include "wcds/algorithm2.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "check/audit.h"
#include "check/check.h"
#include "graph/bfs.h"
#include "mis/mis.h"
#include "obs/recorder.h"

namespace wcds::core {

DominatorLists compute_dominator_lists(const graph::Graph& g,
                                       const std::vector<bool>& mis_mask) {
  const std::size_t n = g.node_count();
  DominatorLists lists;

  // 1HopDomLists: each row in neighbor-row order, so ascending.  Every
  // dominator appears in the row of each of its neighbors, which sizes the
  // entry array exactly.
  std::size_t one_hop_total = 0;
  for (NodeId d = 0; d < n; ++d) {
    if (mis_mask[d]) one_hop_total += g.degree(d);
  }
  lists.one_hop_rows.reset(n, one_hop_total);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (mis_mask[v]) lists.one_hop_rows.push_back(v);
    }
    lists.one_hop_rows.close_row();
  }

  // A dominator d is in u's 2HopDomList iff d is not u, not adjacent to u,
  // and reachable through some neighbor v of u.  One entry per dominator,
  // with the smallest intermediate, mirroring a deterministic run of the
  // distributed "1-HOP-DOMINATORS" exchange.  Each dominator d, ascending,
  // stamps itself and its neighbors (mark[x] == d + 1), then walks its
  // neighbors v ascending and their rows: the first v to reach an unstamped
  // node u is u's smallest via to d, and u is stamped.  So every row comes
  // out ascending by dom with no sort.  Row u is first written into room
  // for every visit it gets, one per (v, d) pair with v a neighbor and d in
  // v's 1HopDomList.  The k-th visit writes at most k - 1 slots in, so it
  // writes its entry unconditionally and keeps it only when the stamp was
  // new.  The rows are then copied tight.
  std::vector<std::uint32_t> room(n + 1, 0);
  for (NodeId u = 0; u < n; ++u) {
    room[u + 1] = room[u];
    for (NodeId v : g.neighbors(u)) {
      room[u + 1] += static_cast<std::uint32_t>(lists.one_hop(v).size());
    }
  }
  std::vector<TwoHopEntry> staged(room[n]);
  std::vector<std::uint32_t> fill(room.begin(), room.end() - 1);
  std::vector<std::uint32_t> mark(n, 0);
  for (NodeId d = 0; d < n; ++d) {
    if (!mis_mask[d]) continue;
    const std::uint32_t tag = d + 1;
    mark[d] = tag;
    for (NodeId v : g.neighbors(d)) mark[v] = tag;
    for (NodeId v : g.neighbors(d)) {
      for (NodeId u : g.neighbors(v)) {
        staged[fill[u]] = {d, v};
        fill[u] += static_cast<std::uint32_t>(mark[u] != tag);
        mark[u] = tag;
      }
    }
  }
  for (NodeId u = 0; u < n; ++u) fill[u] -= room[u];  // now the row lengths
  lists.two_hop_rows = graph::FlatRows<TwoHopEntry>::sized(fill);
  for (NodeId u = 0; u < n; ++u) {
    const auto first = staged.begin() + room[u];
    std::copy(first, first + fill[u], lists.two_hop_rows.mutable_row(u).begin());
  }

  // No 3-hop knowledge yet: n empty rows.
  const std::vector<std::uint32_t> none(n, 0);
  lists.three_hop_rows = graph::FlatRows<ThreeHopEntry>::sized(none);
  return lists;
}

Algorithm2Output algorithm2_components(const graph::Graph& g,
                                       const Algorithm2Options& options) {
  Algorithm2Output out;
  mis::MisResult mis = mis::greedy_mis_by_id(g);
  out.lists = compute_dominator_lists(g, mis.mask);
  const DominatorLists& lists = out.lists;

  const std::size_t n = g.node_count();
  std::vector<bool> additional(n, false);

  // For each MIS-dominator u and each MIS-dominator w exactly three hops
  // away with id(u) < id(w), pick one intermediate path u-v-x-w and promote
  // v to additional-dominator.  Candidates come from the 2HopDomLists of u's
  // neighbors, exactly as the distributed 2-HOP-DOMINATORS exchange surfaces
  // them; near[d] == u + 1 marks d as within two hops of u (or u itself).
  struct Candidate {
    NodeId w, v, x;
  };
  struct Bridge {
    NodeId u, w, v, x;
  };
  std::vector<std::uint32_t> near(n, 0);
  std::vector<Candidate> candidates;  // reused across dominators
  std::vector<Bridge> bridges;        // in selection order
  std::sort(mis.members.begin(), mis.members.end());
  for (NodeId u : mis.members) {
    const std::uint32_t tag = u + 1;
    near[u] = tag;
    for (NodeId d : lists.one_hop(u)) near[d] = tag;
    for (const TwoHopEntry& e : lists.two_hop(u)) near[e.dom] = tag;
    candidates.clear();
    for (NodeId v : g.neighbors(u)) {
      for (const TwoHopEntry& e : lists.two_hop(v)) {
        if (e.dom < u || near[e.dom] == tag) continue;  // closer than 3 hops
        candidates.push_back({e.dom, v, e.via});
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
      bridges.push_back({u, c.w, c.v, c.x});
      i = j;
    }
  }

  // 3HopDomLists: u gets the forward entry and, by the ADDITIONAL-DOMINATOR
  // confirmation, w the reverse one.  Filling the rows in selection order
  // gives each dominator its reverse entries (from lower-ID dominators,
  // selected earlier) before its own forward ones.
  std::vector<std::uint32_t> fill(n, 0);
  for (const Bridge& b : bridges) {
    ++fill[b.u];
    ++fill[b.w];
  }
  out.lists.three_hop_rows = graph::FlatRows<ThreeHopEntry>::sized(fill);
  std::fill(fill.begin(), fill.end(), 0);
  for (const Bridge& b : bridges) {
    out.lists.three_hop_rows.mutable_row(b.u)[fill[b.u]++] = {b.w, b.v, b.x};
    out.lists.three_hop_rows.mutable_row(b.w)[fill[b.w]++] = {b.u, b.x, b.v};
  }

  std::vector<NodeId> bridge_nodes;
  for (NodeId v = 0; v < n; ++v) {
    if (additional[v]) bridge_nodes.push_back(v);
  }
  out.result = WcdsResult::from_members(n, std::move(mis.members),
                                        std::move(bridge_nodes));
  return out;
}

Algorithm2Output algorithm2(const graph::Graph& g,
                            const Algorithm2Options& options) {
  WCDS_REQUIRE(g.node_count() > 0, "algorithm2: empty graph");
  WCDS_REQUIRE(graph::is_connected(g), "algorithm2: graph must be connected");
  obs::Recorder* rec = obs::global_recorder();
  obs::PhaseTimer total_timer(rec, "alg2_central/total");
  Algorithm2Output out = algorithm2_components(g, options);
  const WcdsResult& r = out.result;

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
  // Lemma 3, the Section 1 WCDS property and Theorem 11's certificate.
  if (check::audits_enabled()) {
    check::AuditOptions audit;
    audit.check_dilation = true;
    check::audit_invariants(g, r, audit);
  }
  return out;
}

}  // namespace wcds::core
