#include "mis/properties.h"

#include <algorithm>
#include <numeric>

#include "check/check.h"
#include "graph/bfs.h"
#include "graph/local_bfs.h"

namespace wcds::mis {
namespace {

// Union-find over member indices; a set's root is its smallest index.
struct MemberSets {
  std::vector<NodeId> parent;

  explicit MemberSets(std::size_t count) : parent(count) {
    std::iota(parent.begin(), parent.end(), NodeId{0});
  }
  NodeId find(NodeId i) {
    while (parent[i] != i) i = parent[i] = parent[parent[i]];  // halving
    return i;
  }
  void unite(NodeId a, NodeId b) {
    a = find(a);
    b = find(b);
    parent[std::max(a, b)] = std::min(a, b);
  }
};

// The first member outside its G-component's first member's set, with the
// sets numbered in order of first member (ascending roots).
ProximityWitness first_split(MemberSets& sets, std::span<const NodeId> members,
                             const graph::Components& components) {
  std::vector<std::uint32_t> label(members.size());
  std::vector<std::uint32_t> representative(components.count, kInvalidNode);
  std::uint32_t next = 0;
  for (NodeId i = 0; i < members.size(); ++i) {
    const NodeId root = sets.find(i);
    label[i] = root == i ? next++ : label[root];
    auto& rep = representative[components.label[members[i]]];
    if (rep == kInvalidNode) rep = label[i];
    if (rep != label[i]) return {members[i], rep, label[i]};
  }
  return {};
}

}  // namespace

std::size_t max_mis_neighbors(const graph::Graph& g,
                              const std::vector<bool>& mis_mask) {
  WCDS_REQUIRE(mis_mask.size() == g.node_count(),
               "max_mis_neighbors: mask size mismatch");
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

BallAudit audit_mis_balls(const graph::Graph& g,
                          std::span<const NodeId> members,
                          const graph::Components& components,
                          const PairVisitor& visit) {
  const std::size_t n = g.node_count();
  WCDS_REQUIRE(components.label.size() == n,
               "audit_mis_balls: component labels are not node-indexed");
  std::vector<NodeId> index(n, kInvalidNode);
  for (NodeId i = 0; i < members.size(); ++i) {
    WCDS_REQUIRE(members[i] < n,
                 "audit_mis_balls: member " << members[i] << " of " << n);
    WCDS_REQUIRE(components.label[members[i]] < components.count,
                 "audit_mis_balls: member " << members[i]
                                            << " outside every component");
    index[members[i]] = i;
  }
  BallAudit audit;
  MemberSets h2(members.size());
  MemberSets h3(members.size());
  graph::LocalBfs bfs;
  for (NodeId i = 0; i < members.size(); ++i) {
    const NodeId u = members[i];
    std::size_t at_two = 0;
    std::size_t within_three = 0;
    for (const NodeId v : bfs.run(g, u, 3)) {
      const NodeId j = index[v];
      if (v == u || j == kInvalidNode) continue;
      const HopCount d = bfs.distance(v);
      if (visit) visit(u, v, d);
      // Ball order lists u's row first, so this is u's first MIS neighbor.
      if (d == 1 && audit.adjacent == kInvalidNode) {
        audit.adjacent = u;
        audit.adjacent_to = v;
      }
      if (d == 2) ++at_two;
      ++within_three;
      if (d <= 2) h2.unite(i, j);
      h3.unite(i, j);
    }
    audit.max_at_two_hops = std::max(audit.max_at_two_hops, at_two);
    audit.max_within_three_hops =
        std::max(audit.max_within_three_hops, within_three);
  }
  audit.h2 = first_split(h2, members, components);
  audit.h3 = first_split(h3, members, components);
  return audit;
}

BallAudit audit_mis_balls(const graph::Graph& g,
                          std::span<const NodeId> members) {
  return audit_mis_balls(g, members, graph::connected_components(g));
}

HopCount max_complementary_subset_distance(const graph::Graph& g,
                                           const MisResult& mis) {
  if (mis.members.size() <= 1) return 0;
  // The smallest k with H_k connected equals the max edge weight on a minimum
  // bottleneck spanning tree of the complete graph over MIS members weighted
  // by hop distance; we find it by checking H_k connectivity for growing k.
  // MIS pairwise hop distances first (one BFS per member).
  const std::size_t m = mis.members.size();
  std::vector<std::vector<HopCount>> hop(m);
  for (std::size_t i = 0; i < m; ++i) {
    const auto dist = graph::bfs_distances(g, mis.members[i]);
    hop[i].resize(m);
    for (std::size_t j = 0; j < m; ++j) {
      hop[i][j] = dist[mis.members[j]];
    }
  }
  // Prim-style minimum bottleneck: grow from member 0, always absorbing the
  // member with the smallest hop distance to the tree; the answer is the
  // largest absorption distance.
  std::vector<HopCount> best(m, kUnreachable);
  std::vector<bool> in_tree(m, false);
  best[0] = 0;
  HopCount bottleneck = 0;
  for (std::size_t step = 0; step < m; ++step) {
    std::size_t next = m;
    for (std::size_t j = 0; j < m; ++j) {
      if (!in_tree[j] && (next == m || best[j] < best[next])) next = j;
    }
    if (best[next] == kUnreachable) return kUnreachable;  // G disconnected
    bottleneck = std::max(bottleneck, best[next]);
    in_tree[next] = true;
    for (std::size_t j = 0; j < m; ++j) {
      if (!in_tree[j] && hop[next][j] < best[j]) best[j] = hop[next][j];
    }
  }
  return bottleneck;
}

}  // namespace wcds::mis
