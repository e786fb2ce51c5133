#include "check/audit.h"

#include <algorithm>
#include <string>
#include <vector>

#include "check/check.h"
#include "graph/bfs.h"
#include "graph/subgraph.h"
#include "mis/properties.h"

namespace wcds::check {
namespace {

bool node_active(const std::vector<bool>* active, NodeId u) {
  return active == nullptr || (*active)[u];
}

// One item of the consistency family: on failure, raise it through the check
// layer when `raise` (the message names the broken field), else return false.
#define WCDS_CONSISTENT_(cond, ...)                 \
  do {                                              \
    if (!(cond)) {                                  \
      if (raise) WCDS_CHECK(cond, __VA_ARGS__);     \
      return false;                                 \
    }                                               \
  } while (false)
#define WCDS_CONSISTENT_OP_(op, a, b, ...)                \
  do {                                                    \
    if (!((a) op (b))) {                                  \
      if (raise) WCDS_CHECK_OP_(op, a, b, __VA_ARGS__);   \
      return false;                                       \
    }                                                     \
  } while (false)

// Every structural field of WcdsResult agrees with every other (the
// audit_result contract, itemized so failures name the broken field).
bool audit_consistency(const graph::Graph& g, const core::WcdsResult& result,
                       const std::vector<bool>* active, bool raise) {
  const std::size_t n = g.node_count();
  WCDS_CONSISTENT_OP_(==, result.mask.size(), n,
                      "WcdsResult.mask is not node-indexed");
  WCDS_CONSISTENT_OP_(==, result.color.size(), n,
                      "WcdsResult.color is not node-indexed");
  WCDS_CONSISTENT_(
      std::is_sorted(result.dominators.begin(), result.dominators.end()),
      "WcdsResult.dominators must be ascending");
  WCDS_CONSISTENT_(std::is_sorted(result.mis_dominators.begin(),
                                  result.mis_dominators.end()),
                   "WcdsResult.mis_dominators must be ascending");
  WCDS_CONSISTENT_(std::is_sorted(result.additional_dominators.begin(),
                                  result.additional_dominators.end()),
                   "WcdsResult.additional_dominators must be ascending");

  std::size_t black = 0;
  for (NodeId u = 0; u < n; ++u) {
    WCDS_CONSISTENT_OP_(==, result.mask[u],
                        result.color[u] == core::NodeColor::kBlack,
                        "WcdsResult mask/color disagree at node " << u);
    if (result.mask[u]) ++black;
    if (!node_active(active, u)) {
      WCDS_CONSISTENT_(!result.mask[u],
                       "inactive node " << u << " is in the dominator set");
      continue;
    }
    if (!result.mask[u] && n > 1) {
      WCDS_CONSISTENT_(result.color[u] != core::NodeColor::kWhite,
                       "node " << u << " left white after construction");
    }
  }
  WCDS_CONSISTENT_OP_(==, black, result.dominators.size(),
                      "WcdsResult mask/dominators cardinality mismatch");
  for (NodeId u : result.dominators) {
    WCDS_CONSISTENT_OP_(<, u, n, "dominator id out of range");
    WCDS_CONSISTENT_(result.mask[u], "dominator " << u << " missing from mask");
  }
  // mis + additional partition the dominators (Algorithm II's U = S + C).
  std::vector<NodeId> merged = result.mis_dominators;
  merged.insert(merged.end(), result.additional_dominators.begin(),
                result.additional_dominators.end());
  std::sort(merged.begin(), merged.end());
  WCDS_CONSISTENT_(merged == result.dominators,
                   "mis_dominators + additional_dominators do not partition "
                   "WcdsResult.dominators");
  return true;
}

#undef WCDS_CONSISTENT_OP_
#undef WCDS_CONSISTENT_

// Section 1: the dominator set dominates every active node, and the weakly
// induced subgraph is connected within every connected component of g.
void audit_wcds_property(const graph::Graph& g, const AuditOptions& options,
                         const WcdsSweep& sweep) {
  // Inactive nodes must be isolated.  Checked below the domination witness
  // only, so the failure raised is the first one in node order.
  for (NodeId u = 0; u < g.node_count() && u < sweep.undominated; ++u) {
    if (node_active(options.active, u)) continue;
    WCDS_CHECK_EQ(g.degree(u), std::size_t{0},
                  "Section 1: inactive node " << u << " still has edges");
  }
  WCDS_CHECK(sweep.undominated == kInvalidNode,
             "Section 1 (domination): node " << sweep.undominated
                                             << " has no dominator in its "
                                                "closed neighborhood");
  WCDS_CHECK(sweep.unreached == kInvalidNode,
             "Section 1 (weak connectivity): node "
                 << sweep.unreached
                 << " is unreachable in the weakly induced subgraph of "
                    "its component");
}

// Lemma 3 / Theorem 4: within every connected component of g, the MIS
// proximity graph H_k is connected (complementary subsets <= k hops apart).
void audit_subset_distance(const mis::ProximityWitness& witness,
                           HopCount max_hops, const char* invariant) {
  WCDS_CHECK_EQ(witness.expected, witness.found,
                invariant << ": complementary MIS subsets more than "
                          << max_hops << " hops apart (witness MIS node "
                          << witness.member << ")");
}

// Number of edges with at least one endpoint in the dominator set (the
// Section 4 spanner G').
std::size_t spanner_edge_count(const graph::Graph& g,
                               const core::WcdsResult& result) {
  std::size_t count = 0;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (u < v && (result.mask[u] || result.mask[v])) ++count;
    }
  }
  return count;
}

// Theorem 11: spanner hop distance <= 3*delta + 2 for non-adjacent pairs,
// verified from an evenly strided sample of BFS sources.
void audit_dilation(const graph::Graph& g, const core::WcdsResult& result,
                    const AuditOptions& options) {
  const std::size_t n = g.node_count();
  if (n == 0) return;
  const auto spanner = graph::weakly_induced_subgraph(g, result.mask);
  const std::size_t count = std::min(n, options.dilation_sources);
  for (std::size_t i = 0; i < count; ++i) {
    const auto u = static_cast<NodeId>(i * n / count);
    if (!node_active(options.active, u)) continue;
    const auto in_g = graph::bfs_distances(g, u);
    const auto in_spanner = graph::bfs_distances(spanner, u);
    for (NodeId v = 0; v < n; ++v) {
      if (v == u || in_g[v] == kUnreachable || in_g[v] == 1) continue;
      WCDS_CHECK(in_spanner[v] != kUnreachable,
                 "Theorem 11: pair (" << u << ", " << v
                                      << ") disconnected in the spanner");
      WCDS_CHECK_LE(in_spanner[v],
                    kTheorem11Multiplier * in_g[v] + kTheorem11Additive,
                    "Theorem 11 (topological dilation): pair (" << u << ", "
                                                                << v << ")");
    }
  }
}

}  // namespace

WcdsSweep sweep_wcds(const graph::Graph& g, const std::vector<bool>& mask,
                     const std::vector<bool>* live, mis::Orphans orphans) {
  const std::size_t n = g.node_count();
  WcdsSweep sweep;
  sweep.undominated = mis::first_undominated(g, mask, live, orphans);

  // Breadth-first from s over the live neighbors that claim(u, v) takes.
  std::vector<NodeId> queue;
  const auto bfs = [&](NodeId s, auto&& claim) {
    queue.assign(1, s);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId u = queue[head];
      for (const NodeId v : g.neighbors(u)) {
        if (node_active(live, v) && claim(u, v)) queue.push_back(v);
      }
    }
  };

  // Label the live components, choosing each one's seed on the way.
  std::vector<std::uint32_t>& label = sweep.components.label;
  label.assign(n, kInvalidNode);
  std::vector<NodeId> seeds;
  for (NodeId s = 0; s < n; ++s) {
    if (!node_active(live, s) || label[s] != kInvalidNode) continue;
    const std::uint32_t id = sweep.components.count++;
    NodeId seed = s;
    label[s] = id;
    bfs(s, [&](NodeId /*u*/, NodeId v) {
      if (label[v] != kInvalidNode) return false;
      label[v] = id;
      if (mask[v] && (!mask[seed] || v < seed)) seed = v;
      return true;
    });
    seeds.push_back(seed);
  }

  // One weakly induced BFS per component, from its seed alone.
  std::vector<bool> reached(n, false);
  for (const NodeId s : seeds) {
    reached[s] = true;
    bfs(s, [&](NodeId u, NodeId v) {
      if (reached[v] || (!mask[u] && !mask[v])) return false;
      reached[v] = true;
      return true;
    });
  }
  for (NodeId u = 0; u < n; ++u) {
    if (node_active(live, u) && !reached[u]) {
      sweep.unreached = u;
      break;
    }
  }
  return sweep;
}

bool is_consistent(const graph::Graph& g, const core::WcdsResult& result) {
  return audit_consistency(g, result, nullptr, /*raise=*/false);
}

bool survives_crashes(const graph::Graph& g, const core::WcdsResult& result,
                      std::span<const NodeId> crashed) {
  const std::size_t n = g.node_count();
  std::vector<bool> live(n, true);
  for (NodeId v : crashed) {
    if (v < n) live[v] = false;
  }
  std::vector<bool> mask = result.mask;
  mask.resize(n, false);  // ids past the mask are not in U (contains())
  return sweep_wcds(g, mask, &live, mis::Orphans::kExempt).ok();
}

void audit_resilience(const graph::Graph& g, const core::WcdsResult& result,
                      const AuditOptions& options) {
  const core::ResilienceSpec& spec = options.resilience;
  const std::size_t n = g.node_count();

  if (spec.m > 1) {
    for (NodeId u = 0; u < n; ++u) {
      if (!node_active(options.active, u) || result.mask[u]) continue;
      std::size_t cover = 0;
      for (NodeId v : g.neighbors(u)) {
        if (result.mask[v]) ++cover;
      }
      WCDS_CHECK_GE(cover, static_cast<std::size_t>(spec.m),
                    "(k,m)-resilience (m-fold domination): node "
                        << u << " has " << cover << " dominators, needs "
                        << spec.m);
    }
  }

  if (spec.k >= 2 && !result.dominators.empty()) {
    std::size_t stride = 1;
    if (options.resilience_survivor_sample != 0 &&
        result.dominators.size() > options.resilience_survivor_sample) {
      stride = (result.dominators.size() +
                options.resilience_survivor_sample - 1) /
               options.resilience_survivor_sample;
    }
    for (std::size_t i = 0; i < result.dominators.size(); i += stride) {
      const NodeId v = result.dominators[i];
      const NodeId single[] = {v};
      WCDS_CHECK(survives_crashes(g, result, single),
                 "(k,m)-resilience (survivability): removing backbone node "
                     << v
                     << " disconnects or un-dominates the surviving "
                        "backbone");
    }
  }
}

void audit_invariants(const graph::Graph& g, const core::WcdsResult& result,
                      const AuditOptions& options) {
  const std::size_t n = g.node_count();
  WCDS_CHECK(options.active == nullptr || options.active->size() == n,
             "AuditOptions.active is not node-indexed");
  (void)audit_consistency(g, result, options.active, /*raise=*/true);
  // One sweep labels g's components for Section 1 and the MIS balls alike.
  const WcdsSweep sweep = sweep_wcds(g, result.mask, options.active);
  audit_wcds_property(g, options, sweep);

  if (!result.mis_dominators.empty()) {
    const mis::BallAudit balls =
        mis::audit_mis_balls(g, result.mis_dominators, sweep.components);
    WCDS_CHECK(balls.adjacent == kInvalidNode,
               "Section 2 (independence): MIS dominators "
                   << balls.adjacent << " and " << balls.adjacent_to
                   << " are adjacent");
    audit_subset_distance(balls.h3, kLemma3MaxSubsetDistance, "Lemma 3");
    if (options.level_ranked) {
      audit_subset_distance(balls.h2, kTheorem4SubsetDistance, "Theorem 4");
    }

    // Maximality runs after the subset-distance audits: it mathematically
    // implies Lemma 3, so checking it first would mask any subset-distance
    // defect.
    const std::vector<bool> mis_mask =
        graph::make_mask(n, result.mis_dominators);
    const NodeId uncovered =
        mis::first_undominated(g, mis_mask, options.active);
    WCDS_CHECK(uncovered == kInvalidNode,
               "Section 2 (maximality): node "
                   << uncovered << " has no MIS dominator in its neighborhood");

    if (options.unit_disk) {
      WCDS_CHECK_LE(mis::max_mis_neighbors(g, mis_mask), kLemma1MaxMisNeighbors,
                    "Lemma 1: a node has more than "
                        << kLemma1MaxMisNeighbors << " MIS neighbors");
      WCDS_CHECK_LE(balls.max_at_two_hops, kLemma2TwoHopBound,
                    "Lemma 2: an MIS node has more than "
                        << kLemma2TwoHopBound
                        << " MIS nodes at exactly two hops");
      WCDS_CHECK_LE(balls.max_within_three_hops, kLemma2ThreeHopBound,
                    "Lemma 2: an MIS node has more than "
                        << kLemma2ThreeHopBound
                        << " MIS nodes within three hops");

      // Theorem 10 is proven for the plain Algorithm II backbone; the extra
      // (k,m) dominator layers thicken the spanner past the 9/47 bound by
      // design, so the edge-count check only applies to plain results.
      if (!options.resilience.enabled()) {
        std::size_t active_count = n;
        if (options.active != nullptr) {
          active_count = static_cast<std::size_t>(std::count(
              options.active->begin(), options.active->end(), true));
        }
        const std::size_t gray = active_count - result.dominators.size();
        WCDS_CHECK_LE(
            spanner_edge_count(g, result),
            kTheorem10GrayFactor * gray +
                kTheorem10MisFactor * result.mis_dominators.size(),
            "Theorem 10: spanner edge count exceeds 9*#gray + 47*|S|");
      }
    }
  }

  if (options.resilience.enabled()) audit_resilience(g, result, options);

  if (options.check_dilation) audit_dilation(g, result, options);
}

}  // namespace wcds::check
