#include "check/audit.h"

#include <algorithm>
#include <queue>
#include <string>
#include <vector>

#include "check/check.h"
#include "graph/bfs.h"
#include "mis/mis.h"
#include "mis/properties.h"

namespace wcds::check {
namespace {

bool node_active(const AuditOptions& options, NodeId u) {
  return options.active == nullptr || (*options.active)[u];
}

// Every structural field of WcdsResult agrees with every other (the
// audit_result contract, itemized so failures name the broken field).
void audit_consistency(const graph::Graph& g, const core::WcdsResult& result,
                       const AuditOptions& options) {
  const std::size_t n = g.node_count();
  WCDS_CHECK_EQ(result.mask.size(), n, "WcdsResult.mask is not node-indexed");
  WCDS_CHECK_EQ(result.color.size(), n, "WcdsResult.color is not node-indexed");
  WCDS_CHECK(std::is_sorted(result.dominators.begin(), result.dominators.end()),
             "WcdsResult.dominators must be ascending");
  WCDS_CHECK(std::is_sorted(result.mis_dominators.begin(),
                            result.mis_dominators.end()),
             "WcdsResult.mis_dominators must be ascending");
  WCDS_CHECK(std::is_sorted(result.additional_dominators.begin(),
                            result.additional_dominators.end()),
             "WcdsResult.additional_dominators must be ascending");

  std::size_t black = 0;
  for (NodeId u = 0; u < n; ++u) {
    WCDS_CHECK_EQ(result.mask[u], result.color[u] == core::NodeColor::kBlack,
                  "WcdsResult mask/color disagree at node " << u);
    if (result.mask[u]) ++black;
    if (!node_active(options, u)) {
      WCDS_CHECK(!result.mask[u],
                 "inactive node " << u << " is in the dominator set");
      continue;
    }
    if (!result.mask[u] && n > 1) {
      WCDS_CHECK(result.color[u] != core::NodeColor::kWhite,
                 "node " << u << " left white after construction");
    }
  }
  WCDS_CHECK_EQ(black, result.dominators.size(),
                "WcdsResult mask/dominators cardinality mismatch");
  for (NodeId u : result.dominators) {
    WCDS_CHECK_LT(u, n, "dominator id out of range");
    WCDS_CHECK(result.mask[u], "dominator " << u << " missing from mask");
  }
  // mis + additional partition the dominators (Algorithm II's U = S + C).
  std::vector<NodeId> merged = result.mis_dominators;
  merged.insert(merged.end(), result.additional_dominators.begin(),
                result.additional_dominators.end());
  std::sort(merged.begin(), merged.end());
  WCDS_CHECK(merged == result.dominators,
             "mis_dominators + additional_dominators do not partition "
             "WcdsResult.dominators");
}

// Section 1: the dominator set dominates every active node, and the weakly
// induced subgraph is connected within every connected component of g.
void audit_wcds_property(const graph::Graph& g, const core::WcdsResult& result,
                         const AuditOptions& options,
                         const graph::Components& components) {
  const std::size_t n = g.node_count();
  for (NodeId u = 0; u < n; ++u) {
    if (!node_active(options, u)) {
      WCDS_CHECK_EQ(g.degree(u), std::size_t{0},
                    "Section 1: inactive node " << u << " still has edges");
      continue;
    }
    if (result.mask[u]) continue;
    const auto row = g.neighbors(u);
    WCDS_CHECK(std::any_of(row.begin(), row.end(),
                           [&](NodeId v) { return result.mask[v]; }),
               "Section 1 (domination): node " << u
                                               << " has no dominator in its "
                                                  "closed neighborhood");
  }

  // Weak connectivity per component: a single BFS restricted to edges with
  // at least one black endpoint must sweep the whole component from ONE
  // dominator.  (Seeding from every dominator would visit each weakly
  // induced fragment separately and make the check vacuous.)
  std::vector<NodeId> seed(components.count, kInvalidNode);
  for (NodeId u : result.dominators) {
    NodeId& s = seed[components.label[u]];
    if (s == kInvalidNode) s = u;
  }
  std::vector<bool> visited(n, false);
  for (NodeId s : seed) {
    if (s == kInvalidNode) continue;
    std::queue<NodeId> frontier;
    visited[s] = true;
    frontier.push(s);
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop();
      for (NodeId v : g.neighbors(u)) {
        if (visited[v] || (!result.mask[u] && !result.mask[v])) continue;
        visited[v] = true;
        frontier.push(v);
      }
    }
  }
  for (NodeId u = 0; u < n; ++u) {
    if (!node_active(options, u)) continue;
    if (seed[components.label[u]] != kInvalidNode) {
      WCDS_CHECK(visited[u],
                 "Section 1 (weak connectivity): node "
                     << u
                     << " is unreachable in the weakly induced subgraph of "
                        "its component");
    }
    // A component with no dominator at all already failed domination above.
  }
}

// Section 2: mis_dominators is an independent set.
void audit_mis_independence(const graph::Graph& g,
                            const core::WcdsResult& result,
                            const std::vector<bool>& mis_mask) {
  for (NodeId u : result.mis_dominators) {
    for (NodeId v : g.neighbors(u)) {
      WCDS_CHECK(!mis_mask[v], "Section 2 (independence): MIS dominators "
                                   << u << " and " << v << " are adjacent");
    }
  }
}

// Section 2: the independent set is maximal over active nodes.  Runs after
// the subset-distance audits: maximality mathematically implies Lemma 3, so
// checking it first would mask any subset-distance defect.
void audit_mis_maximality(const graph::Graph& g, const AuditOptions& options,
                          const std::vector<bool>& mis_mask) {
  for (NodeId u = 0; u < g.node_count(); ++u) {
    if (!node_active(options, u) || mis_mask[u]) continue;
    const auto row = g.neighbors(u);
    WCDS_CHECK(std::any_of(row.begin(), row.end(),
                           [&](NodeId v) { return mis_mask[v]; }),
               "Section 2 (maximality): node "
                   << u << " has no MIS dominator in its neighborhood");
  }
}

// Lemma 3 / Theorem 4: within every connected component of g, the MIS
// proximity graph H_k is connected (complementary subsets <= k hops apart).
void audit_subset_distance(const graph::Graph& g, const mis::MisResult& s,
                           const graph::Components& g_components,
                           HopCount max_hops, const char* invariant) {
  if (s.members.size() <= 1) return;
  const auto proximity = mis::mis_proximity_graph(g, s, max_hops);
  const auto h_components = graph::connected_components(proximity);
  // Members sharing a g-component must share an H_k component.
  std::vector<std::uint32_t> representative(g_components.count, kInvalidNode);
  for (NodeId i = 0; i < s.members.size(); ++i) {
    auto& rep = representative[g_components.label[s.members[i]]];
    if (rep == kInvalidNode) {
      rep = h_components.label[i];
    } else {
      WCDS_CHECK_EQ(rep, h_components.label[i],
                    invariant << ": complementary MIS subsets more than "
                              << max_hops << " hops apart (witness MIS node "
                              << s.members[i] << ")");
    }
  }
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
  // Spanner as an explicit graph: keep edges with a black endpoint.
  graph::GraphBuilder builder(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (u < v && (result.mask[u] || result.mask[v])) builder.add_edge(u, v);
    }
  }
  const auto spanner = std::move(builder).build();
  const std::size_t count = std::min(n, options.dilation_sources);
  for (std::size_t i = 0; i < count; ++i) {
    const auto u = static_cast<NodeId>(i * n / count);
    if (!node_active(options, u)) continue;
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

bool survives_crashes(const graph::Graph& g, const core::WcdsResult& result,
                      std::span<const NodeId> crashed) {
  const std::size_t n = g.node_count();
  std::vector<bool> down(n, false);
  for (NodeId v : crashed) {
    if (v < n) down[v] = true;
  }

  const auto is_survivor_dominator = [&](NodeId u) {
    return !down[u] && result.contains(u);
  };

  // Exempt crash-orphans (every neighbor down) and check residual
  // domination in one pass.
  std::vector<bool> orphan(n, false);
  for (NodeId u = 0; u < n; ++u) {
    if (down[u]) continue;
    const auto row = g.neighbors(u);
    const bool isolated =
        std::all_of(row.begin(), row.end(), [&](NodeId v) { return down[v]; });
    if (isolated) {
      orphan[u] = true;
      continue;
    }
    if (is_survivor_dominator(u)) continue;
    const bool dominated = std::any_of(row.begin(), row.end(), [&](NodeId v) {
      return is_survivor_dominator(v);
    });
    if (!dominated) return false;
  }

  // Component labels of g minus the crashed nodes.
  std::vector<std::uint32_t> component(n, kInvalidNode);
  std::uint32_t component_count = 0;
  std::queue<NodeId> frontier;
  for (NodeId s = 0; s < n; ++s) {
    if (down[s] || component[s] != kInvalidNode) continue;
    const std::uint32_t label = component_count++;
    component[s] = label;
    frontier.push(s);
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop();
      for (NodeId v : g.neighbors(u)) {
        if (down[v] || component[v] != kInvalidNode) continue;
        component[v] = label;
        frontier.push(v);
      }
    }
  }

  // One weakly-induced BFS per component, seeded at its first surviving
  // dominator; every non-orphan survivor in a seeded component must be
  // swept (the same single-seed argument as audit_wcds_property).
  std::vector<NodeId> seed(component_count, kInvalidNode);
  for (NodeId u : result.dominators) {
    if (u >= n || down[u]) continue;
    NodeId& s = seed[component[u]];
    if (s == kInvalidNode) s = u;
  }
  std::vector<bool> visited(n, false);
  for (NodeId s : seed) {
    if (s == kInvalidNode) continue;
    visited[s] = true;
    frontier.push(s);
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop();
      for (NodeId v : g.neighbors(u)) {
        if (down[v] || visited[v]) continue;
        if (!is_survivor_dominator(u) && !is_survivor_dominator(v)) continue;
        visited[v] = true;
        frontier.push(v);
      }
    }
  }
  for (NodeId u = 0; u < n; ++u) {
    if (down[u] || orphan[u]) continue;
    if (seed[component[u]] == kInvalidNode) return false;  // no dominator left
    if (!visited[u]) return false;
  }
  return true;
}

void audit_resilience(const graph::Graph& g, const core::WcdsResult& result,
                      const AuditOptions& options) {
  const core::ResilienceSpec& spec = options.resilience;
  const std::size_t n = g.node_count();

  if (spec.m > 1) {
    for (NodeId u = 0; u < n; ++u) {
      if (!node_active(options, u) || result.mask[u]) continue;
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
  audit_consistency(g, result, options);
  // Labelled once: the WCDS property and both subset-distance audits share
  // g's components.
  const graph::Components components = graph::connected_components(g);
  audit_wcds_property(g, result, options, components);

  if (!result.mis_dominators.empty()) {
    mis::MisResult s;
    s.members = result.mis_dominators;
    s.mask.assign(n, false);
    for (NodeId u : s.members) s.mask[u] = true;
    audit_mis_independence(g, result, s.mask);

    audit_subset_distance(g, s, components, kLemma3MaxSubsetDistance,
                          "Lemma 3");
    if (options.level_ranked) {
      audit_subset_distance(g, s, components, kTheorem4SubsetDistance,
                            "Theorem 4");
    }

    audit_mis_maximality(g, options, s.mask);

    if (options.unit_disk) {
      WCDS_CHECK_LE(mis::max_mis_neighbors(g, s.mask), kLemma1MaxMisNeighbors,
                    "Lemma 1: a node has more than "
                        << kLemma1MaxMisNeighbors << " MIS neighbors");
      const auto stats = mis::mis_hop_neighborhood_stats(g, s);
      WCDS_CHECK_LE(stats.max_at_two_hops, kLemma2TwoHopBound,
                    "Lemma 2: an MIS node has more than "
                        << kLemma2TwoHopBound
                        << " MIS nodes at exactly two hops");
      WCDS_CHECK_LE(stats.max_within_three_hops, kLemma2ThreeHopBound,
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
