// Maximal independent set construction and verification (paper, Section 2).
#pragma once

#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "mis/ranking.h"

namespace wcds::mis {

struct MisResult {
  std::vector<NodeId> members;  // ascending rank order of selection
  std::vector<bool> mask;       // node-indexed membership

  [[nodiscard]] std::size_t size() const { return members.size(); }
  [[nodiscard]] bool contains(NodeId u) const { return mask[u]; }
};

// The greedy construction of Table 1: while V nonempty, take the lowest-rank
// remaining (white) node into the MIS and remove it and its neighbors.
// Equivalent single pass: visit nodes in ascending rank; a still-white node
// joins and grays its neighbors.
[[nodiscard]] MisResult greedy_mis(const graph::Graph& g,
                                   std::span<const Rank> ranks);

// greedy_mis with the plain ID ranking (Algorithm II's MIS).
[[nodiscard]] MisResult greedy_mis_by_id(const graph::Graph& g);

// Dynamic max-white-degree greedy (ablation A1): repeatedly pick the node
// with the most white neighbors (ties by lower id), add it, gray neighbors.
[[nodiscard]] MisResult greedy_mis_max_degree(const graph::Graph& g);

enum class Orphans : bool { kMustBeDominated, kExempt };  // no live neighbor

// The smallest live node outside `mask` with no live neighbor in it, or
// kInvalidNode (`live` null: all nodes are live).  The one domination scan:
// WCDS domination, MIS maximality and is_dominating_set read it.
[[nodiscard]] NodeId first_undominated(
    const graph::Graph& g, const std::vector<bool>& mask,
    const std::vector<bool>* live = nullptr,
    Orphans orphans = Orphans::kMustBeDominated);

// True iff `members` is pairwise non-adjacent (independent).  These
// predicates throw std::invalid_argument unless the masks are node-indexed.
[[nodiscard]] bool is_independent_set(const graph::Graph& g,
                                      const std::vector<bool>& mask);

// True iff every node is in the set or adjacent to a member (dominating);
// with independence this is maximality.
[[nodiscard]] bool is_dominating_set(const graph::Graph& g,
                                     const std::vector<bool>& mask);

[[nodiscard]] bool is_maximal_independent_set(const graph::Graph& g,
                                              const std::vector<bool>& mask);

}  // namespace wcds::mis
