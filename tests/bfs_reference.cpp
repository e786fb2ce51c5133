#include "bfs_reference.h"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "check/check.h"
#include "graph/biconnected.h"
#include "graph/subgraph.h"
#include "mis/mis.h"

namespace wcds::testing::reference {
namespace {

bool node_active(const std::vector<bool>* active, NodeId u) {
  return active == nullptr || (*active)[u];
}

// Hop distances from `source` truncated at 3 (connector search radius).
std::vector<HopCount> bfs3(const graph::Graph& g, NodeId source) {
  std::vector<HopCount> dist(g.node_count(), kUnreachable);
  std::queue<NodeId> frontier;
  dist[source] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    if (dist[u] == 3) continue;
    for (NodeId v : g.neighbors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        frontier.push(v);
      }
    }
  }
  return dist;
}

// Phase 1: m-1 additional MIS-style dominator layers.  Each layer is a
// greedy lowest-id MIS of the residual graph induced by the nodes outside
// the backbone; the layer joins the backbone wholesale once chosen, so the
// next layer sees a fresh residual.
std::size_t add_mfold_layers(const graph::Graph& g, std::vector<bool>& mask,
                             std::uint32_t m, std::vector<NodeId>& added) {
  const std::size_t n = g.node_count();
  std::size_t total = 0;
  std::vector<bool> blocked(n, false);
  std::vector<NodeId> joined;
  for (std::uint32_t layer = 1; layer < m; ++layer) {
    blocked.assign(n, false);
    joined.clear();
    for (NodeId u = 0; u < n; ++u) {
      if (mask[u] || blocked[u]) continue;
      joined.push_back(u);
      for (NodeId v : g.neighbors(u)) {
        if (!mask[v]) blocked[v] = true;
      }
    }
    for (NodeId u : joined) {
      mask[u] = true;
      added.push_back(u);
    }
    total += joined.size();
  }
  return total;
}

// One detect-and-patch attempt for the crash of backbone node `v`: label
// the weakly-induced fragments of the survivors in G - v, then, within
// every component of G - v holding two or more fragments, promote the gray
// nodes of a BFS-shortest ear between the lowest-labeled fragment and the
// nearest other one.  Returns how many nodes were promoted (0 when v's
// split is unmergeable, i.e. v is a cut vertex of G itself).
std::size_t patch_crash_of(const graph::Graph& g, std::vector<bool>& mask,
                           NodeId v, std::vector<NodeId>& added) {
  const std::size_t n = g.node_count();
  constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);
  std::queue<NodeId> frontier;

  // Fragment labels: weakly-induced reachability of the surviving
  // dominators in G - v (gray nodes inherit the label of the fragment that
  // reaches them; every fragment holds a dominator because every H-edge
  // has a black endpoint).
  const auto survivor = [&](NodeId u) { return u != v && mask[u]; };
  std::vector<std::uint32_t> frag(n, kNone);
  std::uint32_t frag_count = 0;
  for (NodeId d = 0; d < n; ++d) {
    if (!survivor(d) || frag[d] != kNone) continue;
    const std::uint32_t label = frag_count++;
    frag[d] = label;
    frontier.push(d);
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop();
      for (NodeId w : g.neighbors(u)) {
        if (w == v || frag[w] != kNone) continue;
        if (!survivor(u) && !survivor(w)) continue;
        frag[w] = label;
        frontier.push(w);
      }
    }
  }
  if (frag_count <= 1) return 0;

  // Component labels of G - v: fragments in different components are
  // unmergeable (v cuts the radio graph itself) and stay excused.
  std::vector<std::uint32_t> comp(n, kNone);
  std::uint32_t comp_count = 0;
  for (NodeId s = 0; s < n; ++s) {
    if (s == v || comp[s] != kNone) continue;
    const std::uint32_t label = comp_count++;
    comp[s] = label;
    frontier.push(s);
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop();
      for (NodeId w : g.neighbors(u)) {
        if (w == v || comp[w] != kNone) continue;
        comp[w] = label;
        frontier.push(w);
      }
    }
  }

  // Lowest fragment label per component (the ear's source side).
  std::vector<std::uint32_t> comp_frag(comp_count, kNone);
  std::vector<bool> comp_split(comp_count, false);
  for (NodeId u = 0; u < n; ++u) {
    if (u == v || frag[u] == kNone) continue;
    std::uint32_t& f = comp_frag[comp[u]];
    if (f == kNone) {
      f = frag[u];
    } else if (f != frag[u]) {
      comp_split[comp[u]] = true;
      f = std::min(f, frag[u]);
    }
  }

  std::size_t promoted = 0;
  std::vector<bool> seen(n, false);
  std::vector<NodeId> parent(n, kInvalidNode);
  for (std::uint32_t c = 0; c < comp_count; ++c) {
    if (!comp_split[c]) continue;
    const std::uint32_t source = comp_frag[c];
    seen.assign(n, false);
    parent.assign(n, kInvalidNode);
    while (!frontier.empty()) frontier.pop();
    for (NodeId u = 0; u < n; ++u) {
      if (u == v || frag[u] != source || comp[u] != c) continue;
      seen[u] = true;
      frontier.push(u);
    }
    NodeId hit = kInvalidNode;
    while (!frontier.empty() && hit == kInvalidNode) {
      const NodeId u = frontier.front();
      frontier.pop();
      for (NodeId w : g.neighbors(u)) {
        if (w == v || seen[w]) continue;
        seen[w] = true;
        parent[w] = u;
        if (frag[w] != kNone && frag[w] != source) {
          hit = w;
          break;
        }
        frontier.push(w);
      }
    }
    if (hit == kInvalidNode) continue;  // lone fragment was mislabeled split
    for (NodeId x = hit; x != kInvalidNode; x = parent[x]) {
      if (mask[x]) continue;
      mask[x] = true;
      added.push_back(x);
      ++promoted;
    }
  }
  return promoted;
}

}  // namespace

Search bfs_search(const graph::Graph& g, std::span<const NodeId> sources,
                  HopCount radius) {
  const std::size_t n = g.node_count();
  Search search{std::vector<HopCount>(n, kUnreachable),
                std::vector<NodeId>(n, kInvalidNode), {}};
  std::queue<NodeId> frontier;
  for (const NodeId s : sources) {
    if (search.dist[s] == 0) continue;
    search.dist[s] = 0;
    search.order.push_back(s);
    frontier.push(s);
  }
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    if (search.dist[u] >= radius) continue;
    for (const NodeId v : g.neighbors(u)) {
      if (search.dist[v] != kUnreachable) continue;
      search.dist[v] = search.dist[u] + 1;
      search.parent[v] = u;
      search.order.push_back(v);
      frontier.push(v);
    }
  }
  return search;
}

std::vector<HopCount> bfs_distances(const graph::Graph& g, NodeId source) {
  std::vector<HopCount> dist(g.node_count(), kUnreachable);
  std::queue<NodeId> frontier;
  dist[source] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (NodeId v : g.neighbors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        frontier.push(v);
      }
    }
  }
  return dist;
}

HopCount hop_distance(const graph::Graph& g, NodeId source, NodeId target) {
  WCDS_DCHECK_LT(source, g.node_count(), "hop_distance: source out of range");
  WCDS_DCHECK_LT(target, g.node_count(), "hop_distance: target out of range");
  if (source == target) return 0;
  std::vector<HopCount> dist(g.node_count(), kUnreachable);
  std::queue<NodeId> frontier;
  dist[source] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (NodeId v : g.neighbors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        if (v == target) return dist[v];
        frontier.push(v);
      }
    }
  }
  return kUnreachable;
}

graph::Components connected_components(const graph::Graph& g) {
  graph::Components result;
  result.label.assign(g.node_count(), kInvalidNode);
  std::queue<NodeId> frontier;
  for (NodeId s = 0; s < g.node_count(); ++s) {
    if (result.label[s] != kInvalidNode) continue;
    const std::uint32_t id = result.count++;
    result.label[s] = id;
    frontier.push(s);
    while (!frontier.empty()) {
      const NodeId u = frontier.front();
      frontier.pop();
      for (NodeId v : g.neighbors(u)) {
        if (result.label[v] == kInvalidNode) {
          result.label[v] = id;
          frontier.push(v);
        }
      }
    }
  }
  return result;
}

graph::SpanningTree bfs_tree(const graph::Graph& g, NodeId root) {
  graph::SpanningTree tree;
  tree.root = root;
  tree.parent.assign(g.node_count(), kInvalidNode);
  tree.level.assign(g.node_count(), kUnreachable);
  std::queue<NodeId> frontier;
  tree.level[root] = 0;
  frontier.push(root);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (NodeId v : g.neighbors(u)) {
      if (tree.level[v] == kUnreachable) {
        tree.level[v] = tree.level[u] + 1;
        tree.parent[v] = u;
        frontier.push(v);
      }
    }
  }
  return tree;
}

check::WcdsSweep sweep_wcds(const graph::Graph& g,
                            const std::vector<bool>& mask,
                            const std::vector<bool>* live,
                            mis::Orphans orphans) {
  const std::size_t n = g.node_count();
  check::WcdsSweep sweep;
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

core::WcdsResult mis_tree_cds(const graph::Graph& g) {
  const std::size_t n = g.node_count();
  if (n == 0) throw std::invalid_argument("mis_tree_cds: empty graph");
  if (!graph::is_connected(g)) {
    throw std::invalid_argument("mis_tree_cds: graph must be connected");
  }

  const auto s = mis::greedy_mis_by_id(g);
  const std::size_t m = s.members.size();

  // Prim-style spanning tree of H_3 over the MIS, growing from the smallest
  // member; each absorbed member remembers the tree edge that reached it.
  std::vector<std::vector<HopCount>> dist(m);
  for (std::size_t i = 0; i < m; ++i) dist[i] = bfs3(g, s.members[i]);
  const auto hop = [&](std::size_t i, std::size_t j) {
    return dist[i][s.members[j]];
  };

  std::vector<bool> in_tree(m, false);
  std::vector<HopCount> best(m, kUnreachable);
  std::vector<std::size_t> best_from(m, m);
  std::vector<std::pair<std::size_t, std::size_t>> tree_edges;  // (from, to)
  best[0] = 0;
  for (std::size_t step = 0; step < m; ++step) {
    std::size_t next = m;
    for (std::size_t j = 0; j < m; ++j) {
      if (!in_tree[j] && (next == m || best[j] < best[next])) next = j;
    }
    if (best[next] == kUnreachable) {
      throw std::logic_error("mis_tree_cds: H_3 disconnected (Lemma 3?)");
    }
    in_tree[next] = true;
    if (best_from[next] != m) tree_edges.emplace_back(best_from[next], next);
    for (std::size_t j = 0; j < m; ++j) {
      if (!in_tree[j] && hop(next, j) < best[j]) {
        best[j] = hop(next, j);
        best_from[j] = next;
      }
    }
  }

  // Promote connectors along each tree edge.
  std::vector<bool> connector(n, false);
  for (const auto& [i, j] : tree_edges) {
    const NodeId a = s.members[i];
    const NodeId b = s.members[j];
    if (hop(i, j) == 2) {
      // Smallest common neighbor.
      for (NodeId v : g.neighbors(a)) {
        if (g.has_edge(v, b)) {
          connector[v] = true;
          break;  // neighbors() ascending
        }
      }
    } else {
      // Smallest (v, x) with a-v-x-b.
      bool done = false;
      for (NodeId v : g.neighbors(a)) {
        for (NodeId x : g.neighbors(v)) {
          if (g.has_edge(x, b)) {
            connector[v] = true;
            connector[x] = true;
            done = true;
            break;
          }
        }
        if (done) break;
      }
      if (!done) throw std::logic_error("mis_tree_cds: lost 3-hop path");
    }
  }

  std::vector<NodeId> mis = s.members;
  std::sort(mis.begin(), mis.end());
  std::vector<NodeId> connectors;
  for (NodeId v = 0; v < n; ++v) {
    if (connector[v] && !s.mask[v]) connectors.push_back(v);
  }
  return core::WcdsResult::from_members(n, std::move(mis),
                                        std::move(connectors));
}

core::ResilienceReport augment_resilience(const graph::Graph& g,
                                          core::WcdsResult& result,
                                          const core::ResilienceSpec& spec) {
  const std::size_t n = g.node_count();
  WCDS_REQUIRE(spec.k >= 1 && spec.k <= 2,
               "augment_resilience: k must be 1 or 2, got " << spec.k);
  WCDS_REQUIRE(spec.m >= spec.k,
               "augment_resilience: m >= k required (a (2,1) backbone "
               "cannot keep domination through a crash), got m="
                   << spec.m << " k=" << spec.k);
  WCDS_REQUIRE(result.mask.size() == n,
               "augment_resilience: result is not indexed by g's nodes");

  core::ResilienceReport report;
  if (!spec.enabled()) return report;

  std::vector<NodeId> added;
  report.layer_dominators = add_mfold_layers(g, result.mask, spec.m, added);

  if (spec.k >= 2) {
    // Detect-and-patch to fixpoint: cut vertices of the weakly induced
    // subgraph are exactly the crash points that would split the surviving
    // backbone.  Every productive round promotes at least one node, so the
    // loop terminates; a round that promotes nothing means every remaining
    // cut vertex is a cut vertex of G itself (excused per component).
    while (true) {
      const graph::Graph h = graph::weakly_induced_subgraph(g, result.mask);
      const auto blocks = graph::biconnected_components(h);
      std::size_t promoted = 0;
      for (NodeId v = 0; v < n; ++v) {
        if (!result.mask[v] || !blocks.is_cut_vertex[v]) continue;
        promoted += patch_crash_of(g, result.mask, v, added);
      }
      if (promoted == 0) break;
      report.ear_dominators += promoted;
      ++report.ear_rounds;
    }
  }

  // Fold the new members into the result record: they are additional
  // dominators (S is untouched).
  std::vector<NodeId> additional = std::move(result.additional_dominators);
  additional.insert(additional.end(), added.begin(), added.end());
  std::sort(additional.begin(), additional.end());
  result = core::WcdsResult::from_members(n, std::move(result.mis_dominators),
                                    std::move(additional));
  return report;
}

}  // namespace wcds::testing::reference
