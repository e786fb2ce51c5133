// Structural-property auditors for the MIS lemmas of Section 2.
//
// These measure, on a concrete graph and MIS, the quantities the paper bounds
// analytically, so experiments F3-F5 can report measured-vs-proven and the
// invariant auditor (check/audit.h) can enforce them:
//   Lemma 1:  any non-MIS node of a UDG has <= 5 MIS neighbors.
//   Lemma 2:  an MIS node has <= 23 MIS nodes exactly 2 hops away and <= 47
//             within 3 hops (constants re-derived from the paper's annulus
//             packing argument; the OCR garbles them, see DESIGN.md).
//   Lemma 3:  complementary subsets of any MIS are exactly 2 or 3 hops apart;
//   Theorem 4: under level-based ranking, exactly 2;
//   Theorem 11's certificate: every MIS pair 3 hops apart in G is at most 3
//             hops apart in the spanner G' of a backbone U (docs/CHECKING.md
//             has the proof that this gives d_G' <= 3 d_G + 2).
//
// Independence, Lemmas 2-3, Theorem 4 and the certificate are statements
// about the 3-hop ball of an MIS node: audit_mis_balls reads them all off
// one graph::LocalBfs ball per member.  Lemma 1 (about non-MIS nodes) keeps
// its own scan.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/bfs.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "mis/mis.h"

namespace wcds::mis {

// Lemma 1: max number of MIS neighbors over all non-MIS nodes.  Throws
// std::invalid_argument unless the mask is node-indexed.
[[nodiscard]] std::size_t max_mis_neighbors(const graph::Graph& g,
                                            const std::vector<bool>& mis_mask);

// Lemma 3 / Theorem 4 on the "MIS proximity graph" H_k (member pairs <= k
// hops apart in G): the first member, in member order, outside the H_k
// component of its G-component's first member.  H_k components are numbered
// in order of first member, as graph::connected_components numbers them.
struct ProximityWitness {
  NodeId member = kInvalidNode;
  std::uint32_t expected = 0;  // H_k component of the G-component's first
  std::uint32_t found = 0;     // H_k component of `member`

  [[nodiscard]] bool connected() const { return member == kInvalidNode; }
};

// Everything one radius-3 ball per member shows.
struct BallAudit {
  // Independence: the first member, in member order, with an MIS neighbor,
  // and the first such neighbor in its row; kInvalidNode when independent.
  NodeId adjacent = kInvalidNode;
  NodeId adjacent_to = kInvalidNode;
  // Lemma 2: other members at exactly 2 hops and at 1..3 hops, maximized
  // over the members (bounds 23 and 47).
  std::size_t max_at_two_hops = 0;
  std::size_t max_within_three_hops = 0;
  ProximityWitness h2;  // Theorem 4
  ProximityWitness h3;  // Lemma 3
  // Theorem 11's certificate, judged only when a backbone is given: the
  // first member pair (a, b), in member order, 3 hops apart in G with no
  // 3-hop path a-x-y-b whose middle edge has an endpoint in the backbone;
  // kInvalidNode when every such pair is bridged.
  NodeId unbridged = kInvalidNode;
  NodeId unbridged_to = kInvalidNode;
};

// Sees (member, other member, hops) for every pair the balls find.
using PairVisitor = std::function<void(NodeId, NodeId, HopCount)>;

// One pass over `members` (an MIS, or any candidate set), judging H_2/H_3
// per component of g (`components`), with union-find over member indices.
// A non-null `backbone` (a node mask holding every member) also judges
// Theorem 11's certificate on the same balls.  Throws std::invalid_argument
// for a member outside g, its labels or the backbone.  O(sum of ball sizes
// + edges inside them).
[[nodiscard]] BallAudit audit_mis_balls(
    const graph::Graph& g, std::span<const NodeId> members,
    const graph::Components& components,
    const std::vector<bool>* backbone = nullptr, const PairVisitor& visit = {});
// The same, labelling g's components itself.
[[nodiscard]] BallAudit audit_mis_balls(const graph::Graph& g,
                                        std::span<const NodeId> members);

// Worst-case complementary-subset separation: the smallest k such that H_k is
// connected (the max over cuts of the min cross-cut hop distance), or
// kUnreachable if even H_diam is disconnected.  Exact but O(|S|) BFS runs;
// intended for tests and the F5 experiment.
[[nodiscard]] HopCount max_complementary_subset_distance(const graph::Graph& g,
                                                         const MisResult& mis);

}  // namespace wcds::mis
