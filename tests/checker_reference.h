// Test-only oracle for the invariant checker: the bodies the shared WCDS
// sweep and the one-ball-per-MIS-node pass replaced, kept as they were.
// Each builds what it needs (weakly induced subgraphs, proximity graphs,
// component labels) the plain way.  checker_differential_test compares
// every one of them with its counterpart behind check:: and mis::, value
// for value.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "maintenance/dynamic_wcds.h"
#include "wcds/wcds_result.h"

namespace wcds::testing::reference {

// wcds/verify.cpp (is_dominating was mis::is_dominating_set).
[[nodiscard]] bool is_dominating(const graph::Graph& g,
                                 const std::vector<bool>& mask);
[[nodiscard]] bool is_weakly_connected(const graph::Graph& g,
                                       const std::vector<bool>& mask);
[[nodiscard]] bool is_wcds(const graph::Graph& g, const std::vector<bool>& mask);
[[nodiscard]] bool is_cds(const graph::Graph& g, const std::vector<bool>& mask);
[[nodiscard]] bool audit_result(const graph::Graph& g,
                                const core::WcdsResult& result);

// check::survives_crashes with its own component labelling and BFS.
[[nodiscard]] bool survives_crashes(const graph::Graph& g,
                                    const core::WcdsResult& result,
                                    std::span<const NodeId> crashed);

// The Section 1 audit of check::audit_invariants (inactive isolation,
// domination, single-seed weak connectivity per component of g): the
// streamed message of its first failure, "" when it passes.  `result` must
// be consistent with g.
[[nodiscard]] std::string section1_failure(const graph::Graph& g,
                                           const core::WcdsResult& result,
                                           const std::vector<bool>* active);

// The MIS family of check::audit_invariants without the unit-disk bounds,
// in its order (independence, Lemma 3, Theorem 4 when level_ranked,
// maximality): the streamed message of the first failure, "" when all pass.
// `result` must pass the consistency and Section 1 audits.
[[nodiscard]] std::string mis_family_failure(const graph::Graph& g,
                                             const core::WcdsResult& result,
                                             bool level_ranked,
                                             const std::vector<bool>* active);

// The sections of DynamicWcds::audit(), read through the public interface.
struct DynamicSections {
  bool mis_independent = false;
  bool mis_maximal = false;
  bool bridges_complete = false;
  bool weakly_connected = false;
};
[[nodiscard]] DynamicSections dynamic_audit(
    const maintenance::DynamicWcds& net);

// Lemma 1 (mis::max_mis_neighbors).
[[nodiscard]] std::size_t max_mis_neighbors(const graph::Graph& g,
                                            const std::vector<bool>& mis_mask);

// Lemma 2 (mis::mis_hop_neighborhood_stats).
struct HopStats {
  std::size_t max_at_two_hops = 0;
  std::size_t max_within_three_hops = 0;
};
[[nodiscard]] HopStats hop_neighborhood_stats(const graph::Graph& g,
                                              std::span<const NodeId> members);

// The MIS proximity graph H_k over member indices (mis::mis_proximity_graph)
// and whether it is connected as a whole (mis::audit_subset_distances).
[[nodiscard]] graph::Graph proximity_graph(const graph::Graph& g,
                                           std::span<const NodeId> members,
                                           HopCount max_hops);
[[nodiscard]] bool h_connected(const graph::Graph& g,
                               std::span<const NodeId> members,
                               HopCount max_hops);

}  // namespace wcds::testing::reference
