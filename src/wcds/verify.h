// WCDS verification (paper, Abstract + Section 1 definitions).
//
// S is a weakly-connected dominating set of G iff S dominates V and the
// subgraph *weakly induced* by S — same vertex set, keeping every edge with
// at least one endpoint in S — is connected.
// The predicates adapt check/audit.h's non-raising core: they never reach the
// failure handler, and throw std::invalid_argument for a short mask.
#pragma once

#include <span>

#include "graph/graph.h"
#include "graph/subgraph.h"
#include "graph/types.h"
#include "wcds/wcds_result.h"

namespace wcds::core {

[[nodiscard]] bool is_dominating(const graph::Graph& g,
                                 const std::vector<bool>& mask);

// Connectivity of the weakly induced subgraph, judged over all of V.
[[nodiscard]] bool is_weakly_connected(const graph::Graph& g,
                                       const std::vector<bool>& mask);

[[nodiscard]] bool is_wcds(const graph::Graph& g, const std::vector<bool>& mask);

// S is a *connected* dominating set iff it dominates and the ordinary induced
// subgraph G[S] is connected (baseline comparisons).
[[nodiscard]] bool is_cds(const graph::Graph& g, const std::vector<bool>& mask);

// The sparse spanner of Section 4: all black edges, i.e. the weakly induced
// subgraph of the dominator set.
[[nodiscard]] graph::Graph extract_spanner(const graph::Graph& g,
                                           const WcdsResult& result);

// Internal-consistency audit of a WcdsResult: check::is_consistent (what
// WcdsResult::from_members establishes: mask and dominators agree, every
// dominator list ascending, mis + additional partition the dominators) and
// the set is a WCDS of g.
[[nodiscard]] bool audit_result(const graph::Graph& g, const WcdsResult& result);

}  // namespace wcds::core
