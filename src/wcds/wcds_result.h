// Shared result types for WCDS constructions (paper, Section 4).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace wcds::core {

// Working colors of a greedy construction: black nodes are dominators,
// gray nodes are dominated, white nodes are not yet covered.
enum class NodeColor : std::uint8_t { kWhite, kGray, kBlack };

// Fault-tolerance target for a backbone: survive any k-1 concurrent
// backbone crashes with no repair traffic.  `m` is the domination
// multiplicity (every non-dominator keeps >= m dominators in its
// neighborhood), `k` the connectivity target of the weakly induced
// subgraph under dominator removal.  {1, 1} is the plain WCDS; the
// construction lives in wcds/resilient.h and the invariants in
// check::audit_resilience.  Only k <= 2 and m >= k are constructible.
struct ResilienceSpec {
  std::uint32_t k = 1;
  std::uint32_t m = 1;

  [[nodiscard]] constexpr bool enabled() const { return k > 1 || m > 1; }

  friend constexpr bool operator==(const ResilienceSpec&,
                                   const ResilienceSpec&) = default;
};

// A dominator's entry for a dominator reachable in exactly two hops: `dom`
// via the intermediate `via` (the paper's 2HopDomList entry).
struct TwoHopEntry {
  NodeId dom = kInvalidNode;
  NodeId via = kInvalidNode;

  friend constexpr auto operator<=>(const TwoHopEntry&, const TwoHopEntry&) =
      default;
};

// An MIS-dominator's entry for an MIS-dominator exactly three hops away:
// `dom` via intermediates `via1` (adjacent to self) then `via2` (adjacent to
// dom) — the paper's 3HopDomList entry (w, v, x).
struct ThreeHopEntry {
  NodeId dom = kInvalidNode;
  NodeId via1 = kInvalidNode;
  NodeId via2 = kInvalidNode;

  friend constexpr auto operator<=>(const ThreeHopEntry&,
                                    const ThreeHopEntry&) = default;
};

// A backbone as the paper defines it: U = S + C, the MIS S
// ("MIS-dominators") plus the bridge set C ("additional dominators";
// empty for Algorithm I).  Every construction hands over its two lists
// through from_members(), which derives the merged list and the
// membership mask, so the four fields always agree.  Pure-greedy
// baselines build no MIS: they list every member as additional.
struct WcdsResult {
  std::vector<NodeId> dominators;  // the WCDS U, ascending
  std::vector<bool> mask;          // node-indexed membership in U
  std::vector<NodeId> mis_dominators;         // S, ascending
  std::vector<NodeId> additional_dominators;  // C, ascending

  // The record over n nodes with U = mis + additional.  Throws
  // std::invalid_argument unless both lists are strictly ascending,
  // disjoint and below n.
  [[nodiscard]] static WcdsResult from_members(
      std::size_t n, std::vector<NodeId> mis, std::vector<NodeId> additional);

  [[nodiscard]] std::size_t size() const { return dominators.size(); }

  // Bounds-checked membership: an id outside the construction's node range
  // is simply not in U (callers probe results against graphs of differing
  // size, e.g. the maintenance layer's active subsets).
  [[nodiscard]] bool contains(NodeId u) const {
    return u < mask.size() && mask[u];
  }
};

}  // namespace wcds::core
