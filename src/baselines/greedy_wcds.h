// Greedy WCDS baseline in the style of Chen & Liestman (MobiHoc 2002),
// the prior work the paper compares against conceptually: an O(ln Delta)
// approximation built by repeatedly taking the candidate that dominates the
// most still-white nodes while keeping the weakly induced subgraph connected.
//
// Candidates after the first pick are gray nodes and white nodes adjacent to
// a gray node; both preserve weak connectivity (see the inductive argument
// in Lemma 9's proof style).
#pragma once

#include "graph/graph.h"
#include "graph/types.h"
#include "wcds/wcds_result.h"

namespace wcds::baselines {

// Precondition: g is connected.  Throws std::invalid_argument otherwise.
// The result carries no MIS: every member is an additional dominator.
[[nodiscard]] core::WcdsResult greedy_wcds(const graph::Graph& g);

}  // namespace wcds::baselines
