#include "checker_reference.h"

#include <algorithm>
#include <cstdint>
#include <queue>
#include <sstream>

#include "graph/bfs.h"
#include "graph/local_bfs.h"
#include "graph/subgraph.h"

namespace wcds::testing::reference {
namespace {

// The streamed part of a failed WCDS_CHECK_<op>: "(lhs vs rhs)  message".
template <typename A, typename B>
std::string binary(const A& lhs, const B& rhs, const std::string& message) {
  std::ostringstream out;
  out << "(" << lhs << " vs " << rhs << ")  " << message;
  return out.str();
}

bool node_active(const std::vector<bool>* active, NodeId u) {
  return active == nullptr || (*active)[u];
}

// check/audit.cpp's audit_subset_distance over mis_proximity_graph.
std::string subset_distance_failure(const graph::Graph& g,
                                    std::span<const NodeId> members,
                                    const graph::Components& g_components,
                                    HopCount max_hops, const char* invariant) {
  if (members.size() <= 1) return "";
  const auto h_components =
      graph::connected_components(proximity_graph(g, members, max_hops));
  std::vector<std::uint32_t> representative(g_components.count, kInvalidNode);
  for (NodeId i = 0; i < members.size(); ++i) {
    auto& rep = representative[g_components.label[members[i]]];
    if (rep == kInvalidNode) {
      rep = h_components.label[i];
    } else if (rep != h_components.label[i]) {
      std::ostringstream message;
      message << invariant << ": complementary MIS subsets more than "
              << max_hops << " hops apart (witness MIS node " << members[i]
              << ")";
      return binary(rep, h_components.label[i], message.str());
    }
  }
  return "";
}

}  // namespace

bool is_dominating(const graph::Graph& g, const std::vector<bool>& mask) {
  for (NodeId u = 0; u < g.node_count(); ++u) {
    if (mask[u]) continue;
    const auto row = g.neighbors(u);
    if (std::none_of(row.begin(), row.end(),
                     [&](NodeId v) { return mask[v]; })) {
      return false;
    }
  }
  return true;
}

bool is_weakly_connected(const graph::Graph& g, const std::vector<bool>& mask) {
  return graph::is_connected(graph::weakly_induced_subgraph(g, mask));
}

bool is_wcds(const graph::Graph& g, const std::vector<bool>& mask) {
  return is_dominating(g, mask) && is_weakly_connected(g, mask);
}

bool is_cds(const graph::Graph& g, const std::vector<bool>& mask) {
  if (!is_dominating(g, mask)) return false;
  NodeId start = kInvalidNode;
  std::size_t member_count = 0;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    if (mask[u]) {
      if (start == kInvalidNode) start = u;
      ++member_count;
    }
  }
  if (member_count <= 1) return true;
  const auto induced = graph::induced_subgraph(g, mask);
  const auto dist = graph::bfs_distances(induced, start);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    if (mask[u] && dist[u] == kUnreachable) return false;
  }
  return true;
}

bool audit_result(const graph::Graph& g, const core::WcdsResult& result) {
  const std::size_t n = g.node_count();
  if (result.mask.size() != n || result.color.size() != n) return false;
  if (!std::is_sorted(result.dominators.begin(), result.dominators.end())) {
    return false;
  }
  std::size_t black = 0;
  for (NodeId u = 0; u < n; ++u) {
    const bool in_set = result.mask[u];
    if (in_set != (result.color[u] == core::NodeColor::kBlack)) return false;
    if (in_set) ++black;
    if (!in_set && result.color[u] == core::NodeColor::kWhite && n > 1) {
      return false;
    }
  }
  if (black != result.dominators.size()) return false;
  for (NodeId u : result.dominators) {
    if (u >= n || !result.mask[u]) return false;
  }
  std::vector<NodeId> merged = result.mis_dominators;
  merged.insert(merged.end(), result.additional_dominators.begin(),
                result.additional_dominators.end());
  std::sort(merged.begin(), merged.end());
  if (merged != result.dominators) return false;
  return is_wcds(g, result.mask);
}

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
    if (seed[component[u]] == kInvalidNode) return false;
    if (!visited[u]) return false;
  }
  return true;
}

std::string section1_failure(const graph::Graph& g,
                             const core::WcdsResult& result,
                             const std::vector<bool>* active) {
  const std::size_t n = g.node_count();
  const graph::Components components = graph::connected_components(g);
  for (NodeId u = 0; u < n; ++u) {
    if (!node_active(active, u)) {
      if (g.degree(u) != 0) {
        std::ostringstream message;
        message << "Section 1: inactive node " << u << " still has edges";
        return binary(g.degree(u), std::size_t{0}, message.str());
      }
      continue;
    }
    if (result.mask[u]) continue;
    const auto row = g.neighbors(u);
    if (std::none_of(row.begin(), row.end(),
                     [&](NodeId v) { return result.mask[v]; })) {
      std::ostringstream message;
      message << "Section 1 (domination): node " << u
              << " has no dominator in its closed neighborhood";
      return message.str();
    }
  }
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
    if (!node_active(active, u)) continue;
    if (seed[components.label[u]] != kInvalidNode && !visited[u]) {
      std::ostringstream message;
      message << "Section 1 (weak connectivity): node " << u
              << " is unreachable in the weakly induced subgraph of its "
                 "component";
      return message.str();
    }
  }
  return "";
}

std::string mis_family_failure(const graph::Graph& g,
                               const core::WcdsResult& result,
                               bool level_ranked,
                               const std::vector<bool>* active) {
  const std::span<const NodeId> members = result.mis_dominators;
  if (members.empty()) return "";
  const std::vector<bool> mis_mask =
      graph::make_mask(g.node_count(), result.mis_dominators);
  for (NodeId u : members) {
    for (NodeId v : g.neighbors(u)) {
      if (mis_mask[v]) {
        std::ostringstream message;
        message << "Section 2 (independence): MIS dominators " << u << " and "
                << v << " are adjacent";
        return message.str();
      }
    }
  }
  const graph::Components components = graph::connected_components(g);
  std::string failure =
      subset_distance_failure(g, members, components, 3, "Lemma 3");
  if (failure.empty() && level_ranked) {
    failure = subset_distance_failure(g, members, components, 2, "Theorem 4");
  }
  if (!failure.empty()) return failure;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    if (!node_active(active, u) || mis_mask[u]) continue;
    const auto row = g.neighbors(u);
    if (std::none_of(row.begin(), row.end(),
                     [&](NodeId v) { return mis_mask[v]; })) {
      std::ostringstream message;
      message << "Section 2 (maximality): node " << u
              << " has no MIS dominator in its neighborhood";
      return message.str();
    }
  }
  return "";
}

DynamicSections dynamic_audit(const maintenance::DynamicWcds& net) {
  DynamicSections audit;
  const std::size_t n = net.node_count();
  const graph::Graph g = net.active_graph();
  const auto mis = [&](NodeId u) { return net.is_mis_dominator(u); };

  audit.mis_independent = true;
  audit.mis_maximal = true;
  for (NodeId u = 0; u < n; ++u) {
    if (!net.is_active(u)) continue;
    if (mis(u)) {
      for (NodeId v : g.neighbors(u)) {
        if (mis(v)) audit.mis_independent = false;
      }
    } else {
      const auto row = g.neighbors(u);
      if (std::none_of(row.begin(), row.end(), mis)) audit.mis_maximal = false;
    }
  }

  // Every 3-hop MIS pair holds a bridge whose via node is active, adjacent
  // to one endpoint and two hops from the other.
  const auto bridges = net.bridges();
  const auto bridge_valid = [&](NodeId a, NodeId b, NodeId v) {
    if (!net.is_active(v) || !net.is_active(a) || !net.is_active(b)) {
      return false;
    }
    if (!mis(a) || !mis(b)) return false;
    const auto links = [&](NodeId near, NodeId far) {
      if (!g.has_edge(near, v)) return false;
      for (NodeId x : g.neighbors(v)) {
        if (g.has_edge(x, far)) return true;
      }
      return false;
    };
    return links(a, b) || links(b, a);
  };
  audit.bridges_complete = true;
  graph::LocalBfs bfs;
  for (NodeId a = 0; a < n; ++a) {
    if (!mis(a) || !net.is_active(a)) continue;
    for (NodeId b : bfs.run(g, a, 3)) {
      if (b <= a || !mis(b) || bfs.distance(b) != 3) continue;
      const auto it = bridges.find({a, b});
      if (it == bridges.end() || !bridge_valid(a, b, it->second)) {
        audit.bridges_complete = false;
      }
    }
  }

  std::vector<bool> dom_mask(n, false);
  for (NodeId d : net.dominators()) dom_mask[d] = true;
  const auto weak = graph::weakly_induced_subgraph(g, dom_mask);
  const auto comp_g = graph::connected_components(g);
  const auto comp_w = graph::connected_components(weak);
  audit.weakly_connected = true;
  std::vector<std::uint32_t> rep(comp_g.count, kInvalidNode);
  for (NodeId u = 0; u < n; ++u) {
    if (!net.is_active(u)) continue;
    auto& r = rep[comp_g.label[u]];
    if (r == kInvalidNode) {
      r = comp_w.label[u];
    } else if (r != comp_w.label[u]) {
      audit.weakly_connected = false;
    }
  }
  return audit;
}

std::size_t max_mis_neighbors(const graph::Graph& g,
                              const std::vector<bool>& mis_mask) {
  std::size_t worst = 0;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    if (mis_mask[u]) continue;
    std::size_t count = 0;
    for (NodeId v : g.neighbors(u)) {
      if (mis_mask[v]) ++count;
    }
    worst = std::max(worst, count);
  }
  return worst;
}

HopStats hop_neighborhood_stats(const graph::Graph& g,
                                std::span<const NodeId> members) {
  HopStats stats;
  std::vector<bool> in_mis(g.node_count(), false);
  for (NodeId u : members) in_mis[u] = true;
  graph::LocalBfs bfs;
  for (NodeId u : members) {
    std::size_t at_two = 0;
    std::size_t within_three = 0;
    for (NodeId v : bfs.run(g, u, 3)) {
      if (v == u || !in_mis[v]) continue;
      if (bfs.distance(v) == 2) ++at_two;
      ++within_three;
    }
    stats.max_at_two_hops = std::max(stats.max_at_two_hops, at_two);
    stats.max_within_three_hops =
        std::max(stats.max_within_three_hops, within_three);
  }
  return stats;
}

graph::Graph proximity_graph(const graph::Graph& g,
                             std::span<const NodeId> members,
                             HopCount max_hops) {
  std::vector<NodeId> index(g.node_count(), kInvalidNode);
  for (NodeId i = 0; i < members.size(); ++i) index[members[i]] = i;
  graph::GraphBuilder builder(members.size());
  graph::LocalBfs bfs;
  for (NodeId i = 0; i < members.size(); ++i) {
    for (NodeId v : bfs.run(g, members[i], max_hops)) {
      if (index[v] != kInvalidNode && index[v] > i) {
        builder.add_edge(i, index[v]);
      }
    }
  }
  return std::move(builder).build();
}

bool h_connected(const graph::Graph& g, std::span<const NodeId> members,
                 HopCount max_hops) {
  if (members.size() <= 1) return true;
  return graph::is_connected(proximity_graph(g, members, max_hops));
}

}  // namespace wcds::testing::reference
