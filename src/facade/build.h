// Unified construction facade over the four WCDS entrypoints.
//
// `wcds::core::build()` is the one function application code needs: it
// selects between the paper's two algorithms in their centralized-reference
// and distributed-protocol forms, runs the construction, and returns a
// single BuildReport carrying the WCDS, the sim cost accounting (protocol
// modes), the Algorithm II dominator lists (for the routing layer) and an
// observability snapshot.
//
// The per-algorithm entrypoints — core::algorithm1/algorithm2 and
// protocols::run_algorithm1/run_algorithm2 — remain as the implementation
// and for layer-internal use, but are deprecated for application code in
// favor of this facade (docs/OBSERVABILITY.md and docs/PROTOCOLS.md).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "sim/runtime.h"
#include "wcds/algorithm1.h"
#include "wcds/algorithm2.h"
#include "wcds/wcds_result.h"

namespace wcds::fault {
struct Plan;
}  // namespace wcds::fault

namespace wcds::core {

enum class BuildAlgorithm : std::uint8_t {
  kAlgorithm1Central,   // spanning-tree levels + level-ranked MIS (ratio 5)
  kAlgorithm2Central,   // ID-ranked MIS + 3-hop bridges (sparse spanner)
  kAlgorithm1Protocol,  // distributed Algorithm I over the sim runtime
  kAlgorithm2Protocol,  // distributed Algorithm II over the sim runtime
};

[[nodiscard]] const char* to_string(BuildAlgorithm algorithm);

struct BuildOptions {
  BuildAlgorithm algorithm = BuildAlgorithm::kAlgorithm2Central;

  // kAlgorithm1Central only: spanning-tree kind and root (kInvalidNode
  // selects the minimum-ID node, the paper's leadership criterion).
  Algorithm1Options::Tree tree = Algorithm1Options::Tree::kBfs;
  NodeId root = kInvalidNode;

  // kAlgorithm2Central only: additional-dominator selection rule.
  Algorithm2Options::Selection selection =
      Algorithm2Options::Selection::kLexSmallestPair;

  // Protocol modes only: the sim's message-delay regime.
  sim::DelayModel delays = sim::DelayModel::unit();

  // Protocol modes only: deterministic fault injection (message loss,
  // duplication, delay jitter, node crash windows — src/fault/plan.h).
  // Null keeps the perfect radio at zero overhead; non-null runs the
  // protocol under the fault::HardenedNode reliable transport.  Centralized
  // modes ignore it (no radio).
  const fault::Plan* faults = nullptr;

  // Protocol modes only: threads for multi-component deployments.
  // Components never exchange messages, so every protocol run is the
  // composition of independent per-component sub-runs
  // (protocols/run_components.h); several components run on a pool of this
  // many threads (0 = the WCDS_THREADS env / hardware default, 1 = inline
  // serial), with byte-identical outputs at any count.  Centralized modes
  // ignore it (and still require a connected graph).
  std::size_t threads = 0;

  // Fault-tolerance target (wcds/resilient.h).  The default {1, 1} is the
  // plain construction; {k, m} with m > 1 or k == 2 augments the built
  // backbone to an m-fold dominating, (up to) 2-connected WCDS and audits
  // the (k,m) invariant family alongside the plain ones.  Requires k <= 2
  // and m >= k.  Works in every mode, including sharded protocol runs
  // (the augmentation is per-component by construction).
  ResilienceSpec resilience;

  // Observability: explicit recorder, else the ambient
  // obs::global_recorder(), else no recording.
  obs::Recorder* recorder = nullptr;
};

struct BuildReport {
  // The backbone U = S + C; the MIS S is result.mis_dominators.
  WcdsResult result;

  // Algorithm II modes: per-node 1Hop/2Hop/3HopDomLists.  For the protocol
  // mode the 1- and 2-hop lists are recomputed centrally from the
  // (timing-independent) MIS fixpoint and the 3-hop lists are the protocol
  // nodes' own, both directions.  Empty (no rows) for Algorithm I modes.
  DominatorLists lists;

  // Protocol modes: the sim's cost accounting (paper message/time
  // complexity).  All-zero for centralized modes.
  sim::RunStats stats;

  // Metrics snapshot taken at the end of build() when a recorder was in
  // effect (phase timings, sim counters, sizes); empty otherwise.
  obs::MetricsSnapshot metrics;

  // Algorithm I modes: tree root / elected leader.  kAlgorithm1Protocol
  // additionally reports every node's tree level.
  NodeId leader = kInvalidNode;
  std::vector<std::uint32_t> levels;

  // Non-owning view of the Algorithm II pair the serving layers consume
  // (ClusterheadRouter, service::ServingEngine).  The view
  // borrows this report's storage — keep the report alive while routing.
  // Only meaningful for Algorithm II modes.
  [[nodiscard]] Algorithm2View algorithm2_view() const {
    return Algorithm2View{result, lists};
  }
};

// Build a WCDS over `g` as `options` selects.  Throws std::invalid_argument
// on an empty graph; the centralized modes additionally require `g`
// connected (the reference algorithms' contract), while the protocol modes
// accept disconnected deployments and build a per-component WCDS.
[[nodiscard]] BuildReport build(const graph::Graph& g,
                                const BuildOptions& options = {});

}  // namespace wcds::core
