// Paper-invariant auditor: machine-checks the structural theorems of
// Alzoubi-Wan-Frieder (ICDCS 2003) on a concrete (graph, WcdsResult) pair.
//
// Every violated invariant fails through the WCDS_CHECK layer with a message
// naming the lemma/theorem, so a corrupted construction surfaces as a
// check::CheckError (or aborts under the release-audit handler) instead of a
// silently wrong experiment.  The constants below are the re-derived
// annulus-packing bounds (see docs/CHECKING.md and DESIGN.md for the
// derivation; the published OCR garbles them).
//
// Each invariant has one implementation, in a non-raising core that returns
// witnesses: is_consistent, sweep_wcds, mis::first_undominated and
// mis::audit_mis_balls (one radius-3 ball per MIS node, which also judges
// Theorem 11's local certificate).  The auditor raises
// from it; core::is_wcds, core::audit_result, survives_crashes and
// DynamicWcds::audit read it and never reach the failure handler.
//
// Invariant families, in audit order (docs/CHECKING.md has the full table):
//   * WcdsResult consistency (the audit_result contract, itemized): what
//     WcdsResult::from_members establishes, re-checked for hand-built
//     results;
//   * Section 1 — domination and weak connectivity per component;
//   * Section 2 — independence, then (after Lemma 3 / Theorem 4)
//     maximality; skipped when mis_dominators is empty (pure-greedy
//     baselines carry no MIS);
//   * Lemma 3 / Theorem 4 — complementary MIS subsets <= 3 hops apart (H_3
//     connected per component), exactly 2 under the (level, ID) ranking;
//   * unit-disk only: Lemma 1 (<= 5 MIS neighbors), Lemma 2 (<= 23 MIS
//     nodes at two hops, <= 47 within three), Theorem 10 (spanner edges
//     <= 9*#gray + 47*|S|);
//   * opt-in: (k,m)-resilience (see audit_resilience below), then, last,
//     Theorem 11 (spanner hop distance <= 3*delta + 2 for every pair) by its
//     certificate: every MIS pair 3 hops apart in G is at most 3 hops apart
//     in the spanner.  Read off the MIS balls, so it needs an MIS.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/bfs.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "mis/mis.h"
#include "wcds/wcds_result.h"

namespace wcds::check {

// Re-derived packing constants (Section 2; see docs/CHECKING.md).
inline constexpr std::size_t kLemma1MaxMisNeighbors = 5;
inline constexpr std::size_t kLemma2TwoHopBound = 23;
inline constexpr std::size_t kLemma2ThreeHopBound = 47;
inline constexpr HopCount kLemma3MaxSubsetDistance = 3;
inline constexpr HopCount kTheorem4SubsetDistance = 2;
inline constexpr std::size_t kTheorem10GrayFactor = 9;
inline constexpr std::size_t kTheorem10MisFactor = 47;
inline constexpr HopCount kTheorem11Multiplier = 3;
inline constexpr HopCount kTheorem11Additive = 2;

struct AuditOptions {
  // The graph is a unit-disk graph: enforce the packing bounds (Lemmas 1-2,
  // Theorem 10).  Off by default — they are false for arbitrary graphs.
  bool unit_disk = false;

  // The MIS was built under the (level, ID) ranking: enforce Theorem 4's
  // two-hop complementary-subset distance instead of only Lemma 3's three.
  bool level_ranked = false;

  // The backbone bridges every 3-hop MIS pair: each MIS pair 3 hops apart
  // in g is at most 3 hops apart in the spanner, which proves Theorem 11's
  // bound d_G' <= 3 d_G + 2 for every pair (docs/CHECKING.md).  Every
  // Algorithm II tripwire sets it; Algorithm I makes no such promise.
  // Judged on the MIS balls the audit runs anyway, so results without
  // mis_dominators are not judged.
  bool check_dilation = false;

  // Restrict the audit to active nodes (dynamic maintenance).  Inactive
  // nodes must be isolated in `g` and outside the dominator set; they are
  // exempt from domination requirements.
  const std::vector<bool>* active = nullptr;

  // The result was built as a (k,m)-resilient backbone (wcds/resilient.h):
  // additionally enforce m-fold domination and, for k >= 2, single-crash
  // survivability.  An enabled spec also *disables* the Theorem 10 edge
  // bound — the theorem is proven for the plain Algorithm II backbone, and
  // the extra dominator layers legitimately thicken the spanner (the A9
  // experiment reports the measured sparseness instead).
  core::ResilienceSpec resilience;
};

// Runs every applicable invariant; failures raise through the check layer
// with the lemma/theorem name in the message.  Callers gate on
// check::audits_enabled() when the audit is a debug tripwire rather than an
// explicit verification request.
void audit_invariants(const graph::Graph& g, const core::WcdsResult& result,
                      const AuditOptions& options = {});

// --- The non-raising core --------------------------------------------------

// The WCDS definition (Section 1) in one sweep over g restricted to the live
// nodes (`live` null: all nodes are): mis::first_undominated, and weak
// connectivity per component, judged by one BFS over the edges with an
// endpoint in `mask` from the component's smallest member of `mask` (its
// smallest node when it has none).  Seeding every member would sweep each
// weakly induced fragment on its own and make the check vacuous.  Throws
// std::invalid_argument unless the masks are node-indexed.
struct WcdsSweep {
  NodeId undominated = kInvalidNode;
  NodeId unreached = kInvalidNode;  // smallest live node the sweep missed
  graph::Components components;     // of g over the live nodes (dead nodes:
                                    // kInvalidNode)

  [[nodiscard]] bool ok() const {
    return undominated == kInvalidNode && unreached == kInvalidNode;
  }
};
[[nodiscard]] WcdsSweep sweep_wcds(
    const graph::Graph& g, const std::vector<bool>& mask,
    const std::vector<bool>* live = nullptr,
    mis::Orphans orphans = mis::Orphans::kMustBeDominated);

// The consistency family of audit_invariants as a predicate, every node
// active: false wherever the audit would raise its first failure.
[[nodiscard]] bool is_consistent(const graph::Graph& g,
                                 const core::WcdsResult& result);

// --- Raising audits and survivability ---------------------------------------

// True iff the backbone survives the concurrent crash of `crashed` with no
// repair: every surviving node that still has a live neighbor is dominated
// by a surviving dominator, and the weakly induced subgraph of the
// surviving dominators is connected within every connected component of
// g minus the crashed nodes.  Nodes isolated by the crash (their entire
// neighborhood went down) are exempt — no backbone can serve a node with
// no live radio link.  sweep_wcds over the surviving nodes; never raises.
[[nodiscard]] bool survives_crashes(const graph::Graph& g,
                                    const core::WcdsResult& result,
                                    std::span<const NodeId> crashed);

// The (k,m) invariant family on its own: m-fold domination (every
// non-dominator has >= m dominators among its neighbors) and, for k >= 2,
// survives_crashes for every single backbone removal.  Violations
// raise through the check layer naming the failed sub-invariant.
// audit_invariants dispatches here when options.resilience is enabled.
void audit_resilience(const graph::Graph& g, const core::WcdsResult& result,
                      const AuditOptions& options);

}  // namespace wcds::check
