// Fault-tolerant (k,m)-WCDS augmentation (the paper's open-problem
// direction; cf. Fukunaga's highly-connected multi-dominating sets and
// Shi-Zhang-Du's (k,m)-CDS construction, PAPERS.md).
//
// A plain WCDS repairs after a backbone crash; a (k,m)-resilient backbone
// survives it with zero repair traffic.  The augmentation runs in two
// phases over an existing construction (any of the four core::build modes):
//
//  1. m-fold domination — m-1 additional MIS-style dominator layers, each a
//     maximal independent set of the residual graph induced by the nodes
//     not yet in the backbone.  A node that stays outside the backbone
//     survives every layer only by holding a neighbor in each of them, so
//     it ends with >= m distinct dominators (its original MIS dominator
//     plus one per layer); a node that runs out of residual neighbors joins
//     a layer itself.
//
//  2. 2-connectivity (k == 2) — cut vertices of the weakly induced
//     subgraph H(U) are exactly the backbone nodes whose crash splits the
//     surviving backbone (removing u from both U and G preserves H's edge
//     rule, so H(U) minus u IS the weakly induced subgraph of the
//     survivors).  Each round detects them with graph::biconnected_components
//     and patches the shortest ear: a BFS-shortest path in G minus u
//     between two surviving fragments, whose gray nodes get promoted.
//     Fragments in different components of G minus u are unmergeable — u is
//     a cut vertex of the radio graph itself — and stay excused, matching
//     the per-component judgement of check::survives_crashes.
//
// The result keeps every plain invariant (S is untouched, so Lemmas 1-3
// still hold; added nodes land in additional_dominators, so U = S + C still
// partitions) except Theorem 10's edge bound, which is proven only for the
// plain backbone and is skipped by the auditor when a resilience spec is
// declared.
#pragma once

#include <cstddef>

#include "graph/graph.h"
#include "obs/recorder.h"
#include "wcds/wcds_result.h"

namespace wcds::core {

struct ResilienceReport {
  std::size_t layer_dominators = 0;  // added by the m-fold MIS layers
  std::size_t ear_dominators = 0;    // promoted by the 2-connectivity ears
  std::size_t ear_rounds = 0;        // detect-and-patch sweeps to fixpoint
};

// Augments `result` (built over `g`) in place to meet `spec`.  Requires
// spec.k <= 2 and spec.m >= spec.k (survivability needs the redundant
// domination layer: with m >= 2 every gray node keeps a dominator through
// any single crash).  Works per connected component, so protocol-mode
// multi-component deployments augment shard by shard.  Runs no audit:
// core::build, which knows the construction mode, audits the augmented
// result.  `recorder` (null ok) receives the resilience/* metrics.
ResilienceReport augment_resilience(const graph::Graph& g, WcdsResult& result,
                                    const ResilienceSpec& spec,
                                    obs::Recorder* recorder = nullptr);

}  // namespace wcds::core
