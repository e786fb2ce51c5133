// Test-only oracle for Algorithm II's dominator lists: the nested-vector
// bodies that the flat-row kernels in wcds/algorithm2.cpp replaced, kept
// as they were — one heap vector per node and row, membership by binary
// search and linear scan, per-dominator candidate vectors.
// algorithm2_lists_differential_test compares the flat tables with them
// row for row.
#pragma once

#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "mis/mis.h"
#include "wcds/algorithm2.h"
#include "wcds/wcds_result.h"

namespace wcds::testing::reference {

struct NestedDominatorLists {
  std::vector<std::vector<NodeId>> one_hop;
  std::vector<std::vector<core::TwoHopEntry>> two_hop;
  std::vector<std::vector<core::ThreeHopEntry>> three_hop;
};

// core::compute_dominator_lists: one_hop and two_hop; three_hop all empty.
[[nodiscard]] NestedDominatorLists compute_dominator_lists(
    const graph::Graph& g, const mis::MisResult& s);

// core::algorithm2's list and bridge selection over the ID-ranked MIS:
// every list, three_hop included, and the additional-dominator mask.
struct Algorithm2Lists {
  NestedDominatorLists lists;
  std::vector<bool> additional;
};
[[nodiscard]] Algorithm2Lists algorithm2_lists(
    const graph::Graph& g, core::Algorithm2Options::Selection selection);

}  // namespace wcds::testing::reference
