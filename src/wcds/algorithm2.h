// Algorithm II (paper, Section 4.2) — centralized reference.
//
// U = S + C where S is the greedy lowest-ID-first MIS ("MIS-dominators") and
// C contains one intermediate node per pair of MIS-dominators exactly three
// hops apart ("additional-dominators").  By Lemma 9 the result is a WCDS;
// its weakly induced subgraph is a sparse spanner with topological dilation
// delta'(u,v) <= 3*delta(u,v) + 2 and geometric dilation l' <= 6*l + 5
// (Theorem 11).
//
// The per-node 1Hop/2Hop/3HopDomLists mirror the state of the distributed
// protocol and feed the clusterhead routing layer (src/routing).  By Lemmas
// 1 and 2 a node's rows in a unit-disk graph hold at most 5, 23 and 47
// entries, so each list is one flat table (graph::FlatRows: an offset
// array and one entry array), filled with the help of stamp arrays rather
// than per-node vectors and membership scans: a constant number of
// allocations per table, whatever n is.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/flat_rows.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "wcds/wcds_result.h"

namespace wcds::core {

// The paper's per-node dominator knowledge after the information-exchange
// rounds.  one_hop/two_hop rows are kept for every node; three_hop rows
// only carry entries at MIS-dominators (empty elsewhere).  Row order:
// one_hop ascending; two_hop ascending by dom; three_hop as the entries
// were learned — for algorithm2(), the reverse entries from lower-ID
// dominators first, then the node's own forward entries by dom.
struct DominatorLists {
  graph::FlatRows<NodeId> one_hop_rows;
  graph::FlatRows<TwoHopEntry> two_hop_rows;
  graph::FlatRows<ThreeHopEntry> three_hop_rows;

  // The number of nodes the rows cover (0 for an empty set of lists).
  [[nodiscard]] std::size_t node_count() const {
    return one_hop_rows.row_count();
  }
  [[nodiscard]] std::span<const NodeId> one_hop(NodeId u) const {
    return one_hop_rows[u];
  }
  [[nodiscard]] std::span<const TwoHopEntry> two_hop(NodeId u) const {
    return two_hop_rows[u];
  }
  [[nodiscard]] std::span<const ThreeHopEntry> three_hop(NodeId u) const {
    return three_hop_rows[u];
  }
};

// Populate one_hop (adjacent MIS-dominators) and two_hop (MIS-dominators at
// exactly two hops, one entry per dominator with the smallest intermediate)
// for every node, given the MIS S as a node-indexed mask; three_hop has n
// empty rows.
[[nodiscard]] DominatorLists compute_dominator_lists(
    const graph::Graph& g, const std::vector<bool>& mis_mask);

struct Algorithm2Options {
  // How to pick the additional-dominator among the candidate intermediates
  // of a 3-hop MIS pair (ablation A2):
  enum class Selection {
    kLexSmallestPair,     // smallest (v, x); the deterministic default
    kReuseIntermediates,  // prefer a v already chosen for another pair
  };
  Selection selection = Selection::kLexSmallestPair;
};

struct Algorithm2Output {
  WcdsResult result;     // S is result.mis_dominators
  DominatorLists lists;  // including the populated 3HopDomLists
};

// Non-owning view over an Algorithm II construction: the shape every
// consumer on the serving path (ClusterheadRouter, the service engine)
// takes, so routing over an n >= 10^6 backbone never copies the
// result/lists pair.  The referenced storage must outlive the view —
// typically it lives in a core::BuildReport or an Algorithm2Output.
//
// Implicitly constructible from an Algorithm2Output lvalue so existing
// call sites keep compiling; construction from a temporary is deleted
// (the view would dangle before the callee returned).
class Algorithm2View {
 public:
  Algorithm2View(const WcdsResult& result, const DominatorLists& lists)
      : result_(&result), lists_(&lists) {}

  // NOLINTNEXTLINE(google-explicit-constructor): deliberate implicit view.
  Algorithm2View(const Algorithm2Output& output)
      : Algorithm2View(output.result, output.lists) {}
  Algorithm2View(Algorithm2Output&&) = delete;

  [[nodiscard]] const WcdsResult& result() const { return *result_; }
  [[nodiscard]] const DominatorLists& lists() const { return *lists_; }

 private:
  const WcdsResult* result_;
  const DominatorLists* lists_;
};

// The construction body, with no connectivity precondition.  Every step is
// local (the greedy MIS by ID, the 1/2-hop lists, the 3-hop selection), so
// on any graph, empty or disconnected included, the output is the union of
// the per-component outputs: an isolated node is an MIS-dominator with no
// list entries.  Records nothing and runs no audit.  DynamicWcds seeds its
// maintained backbone from it over the active graph.
[[nodiscard]] Algorithm2Output algorithm2_components(
    const graph::Graph& g, const Algorithm2Options& options = {});

// Algorithm II over a connected graph: algorithm2_components() plus the
// alg2_central/* timings and metrics and, when audits are on, the WCDS
// invariant audit.  Precondition: g is non-empty and connected.  Throws
// std::invalid_argument otherwise.
[[nodiscard]] Algorithm2Output algorithm2(const graph::Graph& g,
                                          const Algorithm2Options& options = {});

}  // namespace wcds::core
