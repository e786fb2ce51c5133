// Greedy *connected* dominating set baseline in the style of Guha & Khuller's
// first algorithm: grow a tree of black nodes from a max-degree seed, always
// promoting the gray node that dominates the most still-white nodes.
//
// The paper motivates WCDS as the relaxation of CDS (|MWCDS| <= |MCDS|); this
// baseline supplies the CDS side of experiment T1.
#pragma once

#include "graph/graph.h"
#include "graph/types.h"
#include "wcds/wcds_result.h"

namespace wcds::baselines {

// Precondition: g is connected.  Throws std::invalid_argument otherwise.
// The result carries no MIS: every member is an additional dominator.
[[nodiscard]] core::WcdsResult greedy_cds(const graph::Graph& g);

}  // namespace wcds::baselines
