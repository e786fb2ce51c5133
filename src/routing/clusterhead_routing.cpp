#include "routing/clusterhead_routing.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace wcds::routing {

namespace {
constexpr std::uint32_t kNoHead = 0xFFFFFFFFu;
}  // namespace

ClusterheadRouter::ClusterheadRouter(const graph::Graph& g,
                                     core::Algorithm2View wcds)
    : g_(g) {
  const std::size_t n = g.node_count();
  heads_ = wcds.result().mis_dominators;  // ascending by construction
  index_.assign(n, kNoHead);
  for (std::uint32_t i = 0; i < heads_.size(); ++i) index_[heads_[i]] = i;

  // Clusterhead assignment: self for heads, lowest-ID 1-hop MIS-dominator
  // otherwise (the 1HopDomList is sorted).
  const core::DominatorLists& lists = wcds.lists();
  clusterhead_.assign(n, kInvalidNode);
  for (NodeId u = 0; u < n; ++u) {
    if (index_[u] != kNoHead) {
      clusterhead_[u] = u;
    } else if (!lists.one_hop[u].empty()) {
      clusterhead_[u] = lists.one_hop[u].front();
    } else {
      throw std::invalid_argument(
          "ClusterheadRouter: node without a 1-hop dominator (S must "
          "dominate)");
    }
  }

  // Overlay edges: 2-hop pairs from the 2HopDomLists of the heads, 3-hop
  // pairs from the (bidirectional) 3HopDomLists Algorithm II populated.
  overlay_.assign(heads_.size(), {});
  const auto add_edge = [&](NodeId a, NodeId b, NodeId via1, NodeId via2) {
    auto& row = overlay_[index_[a]];
    const std::uint32_t to = index_[b];
    if (std::any_of(row.begin(), row.end(),
                    [&](const OverlayEdge& e) { return e.to == to; })) {
      return;
    }
    row.push_back({to, via1, via2});
    ++overlay_edges_;
  };
  for (NodeId a : heads_) {
    for (const core::TwoHopEntry& e : lists.two_hop[a]) {
      add_edge(a, e.dom, e.via, kInvalidNode);
    }
    for (const core::ThreeHopEntry& e : lists.three_hop[a]) {
      add_edge(a, e.dom, e.via1, e.via2);
    }
  }

  // Routing tables: BFS per head over the overlay.  The same traversal
  // yields the overlay hop distances, kept for candidate ordering in the
  // service layer (nearest advertising domain first).  Each head's row of
  // next_ doubles as the BFS's first-hop array: a head reached from src
  // inherits the first hop of the head that discovered it, so the whole
  // build is O(h * (h + E)) with no walk back up the BFS tree.
  const std::size_t h = heads_.size();
  next_.assign(h * h, kNoHead);
  dist_.assign(h * h, kUnreachableDistance);
  std::vector<std::uint32_t> frontier(h);
  for (std::uint32_t src = 0; src < h; ++src) {
    std::uint32_t* const first = &next_[src * h];
    std::uint16_t* const dist = &dist_[src * h];
    dist[src] = 0;
    frontier[0] = src;
    std::size_t tail = 1;
    for (std::size_t at = 0; at < tail; ++at) {
      const std::uint32_t a = frontier[at];
      for (const OverlayEdge& e : overlay_[a]) {
        if (dist[e.to] != kUnreachableDistance) continue;  // visited
        dist[e.to] = static_cast<std::uint16_t>(std::min<std::uint32_t>(
            dist[a] + 1u, kUnreachableDistance - 1u));
        first[e.to] = a == src ? e.to : first[a];
        frontier[tail++] = e.to;
      }
    }
  }
}

NodeId ClusterheadRouter::next_clusterhead(NodeId from_head,
                                           NodeId to_head) const {
  const std::uint32_t from = index_[from_head];
  const std::uint32_t to = index_[to_head];
  if (from == kNoHead || to == kNoHead) return kInvalidNode;
  if (from == to) return from_head;
  const std::uint32_t step = next_[from * heads_.size() + to];
  return step == kNoHead ? kInvalidNode : heads_[step];
}

std::uint32_t ClusterheadRouter::overlay_distance(NodeId from_head,
                                                  NodeId to_head) const {
  const std::uint32_t from = index_[from_head];
  const std::uint32_t to = index_[to_head];
  if (from == kNoHead || to == kNoHead) return kNoHead;
  const std::uint16_t d = dist_[from * heads_.size() + to];
  return d == kUnreachableDistance ? kNoHead : d;
}

ClusterheadRouter::Leg ClusterheadRouter::leg(std::uint32_t from_idx,
                                               std::uint32_t to_idx) const {
  const auto& row = overlay_[from_idx];
  const auto it = std::find_if(
      row.begin(), row.end(),
      [&](const OverlayEdge& e) { return e.to == to_idx; });
  if (it == row.end()) {
    throw std::logic_error("ClusterheadRouter::leg: not an overlay edge");
  }
  return Leg{it->via1, it->via2};
}

std::vector<NodeId> ClusterheadRouter::overlay_leg(NodeId from_head,
                                                   NodeId to_head) const {
  const Leg edge = leg(index_[from_head], index_[to_head]);
  std::vector<NodeId> hop_path;
  hop_path.push_back(edge.via1);
  if (edge.via2 != kInvalidNode) hop_path.push_back(edge.via2);
  hop_path.push_back(to_head);
  return hop_path;
}

Route ClusterheadRouter::route(NodeId src, NodeId dst) const {
  Route r;
  r.path.push_back(src);
  if (src == dst) {
    r.delivered = true;
    return r;
  }
  if (g_.has_edge(src, dst)) {  // adjacent pairs use the direct edge
    r.path.push_back(dst);
    r.delivered = true;
    return r;
  }
  const NodeId src_head = clusterhead_[src];
  const NodeId dst_head = clusterhead_[dst];
  if (src != src_head) r.path.push_back(src_head);

  std::uint32_t at = index_[src_head];
  const std::uint32_t goal = index_[dst_head];
  while (at != goal) {
    const std::uint32_t step = next_head_index(at, goal);
    if (step == kNoHead) return r;  // overlay disconnected: undeliverable
    const Leg edge = leg(at, step);
    r.path.push_back(edge.via1);
    if (edge.via2 != kInvalidNode) r.path.push_back(edge.via2);
    r.path.push_back(heads_[step]);
    at = step;
  }
  if (dst != dst_head) r.path.push_back(dst);
  r.delivered = true;
  return r;
}

}  // namespace wcds::routing
