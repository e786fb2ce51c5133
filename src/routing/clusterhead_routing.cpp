#include "routing/clusterhead_routing.h"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>
#include <utility>

#include "check/check.h"

namespace wcds::routing {

namespace {
constexpr std::uint32_t kNoHead = 0xFFFFFFFFu;

// Sources per pass of the distance-table BFS: one bit per source in
// kLaneWords words per head.
constexpr std::size_t kLaneWords = 4;
constexpr std::size_t kLanes = 64 * kLaneWords;
using Lanes = std::array<std::uint64_t, kLaneWords>;
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
  WCDS_REQUIRE(lists.node_count() == n,
               "ClusterheadRouter: the dominator lists cover "
                   << lists.node_count() << " nodes but the graph has " << n
                   << " (only an Algorithm II build fills them)");
  clusterhead_.assign(n, kInvalidNode);
  for (NodeId u = 0; u < n; ++u) {
    if (index_[u] != kNoHead) {
      clusterhead_[u] = u;
    } else if (!lists.one_hop(u).empty()) {
      clusterhead_[u] = lists.one_hop(u).front();
    } else {
      throw std::invalid_argument(
          "ClusterheadRouter: node without a 1-hop dominator (S must "
          "dominate)");
    }
  }

  // Overlay edges: 2-hop pairs from the 2HopDomLists of the heads, 3-hop
  // pairs from the (bidirectional) 3HopDomLists Algorithm II populated, one
  // row per head in head order.  A row keeps the first edge to each head:
  // seen[b] == a + 1 once head b is in head a's row.
  const std::size_t h = heads_.size();
  std::size_t listed = 0;
  for (NodeId a : heads_) {
    listed += lists.two_hop(a).size() + lists.three_hop(a).size();
  }
  overlay_.reset(h, listed);
  std::vector<std::uint32_t> seen(h, 0);
  for (std::uint32_t a = 0; a < h; ++a) {
    const auto add_edge = [&](NodeId b, NodeId via1, NodeId via2) {
      const std::uint32_t to = index_[b];
      if (seen[to] == a + 1) return;
      seen[to] = a + 1;
      overlay_.push_back({to, via1, via2});
    };
    for (const core::TwoHopEntry& e : lists.two_hop(heads_[a])) {
      add_edge(e.dom, e.via, kInvalidNode);
    }
    for (const core::ThreeHopEntry& e : lists.three_hop(heads_[a])) {
      add_edge(e.dom, e.via1, e.via2);
    }
    overlay_.close_row();
  }
  overlay_edges_ = overlay_.entry_count();

  // The next-clusterhead rule reads the distance *to* head b off b's own
  // row, so every overlay edge needs its reverse.  Checked in O(E) against
  // the transposed rows: when each row's targets lie in its in-row, the
  // sizes add up to E on both sides and the rows are equal.
  std::vector<std::uint32_t> in_degree(h, 0);
  for (std::uint32_t a = 0; a < h; ++a) {
    for (const OverlayEdge& e : overlay_[a]) ++in_degree[e.to];
  }
  auto in_rows = graph::FlatRows<std::uint32_t>::sized(in_degree);
  for (std::uint32_t a = 0; a < h; ++a) {
    for (const OverlayEdge& e : overlay_[a]) {
      in_rows.mutable_row(e.to)[--in_degree[e.to]] = a;
    }
  }
  std::fill(seen.begin(), seen.end(), 0);
  for (std::uint32_t b = 0; b < h; ++b) {
    for (const std::uint32_t a : in_rows[b]) seen[a] = b + 1;
    for (const OverlayEdge& e : overlay_[b]) {
      WCDS_REQUIRE(seen[e.to] == b + 1,
                   "ClusterheadRouter: head "
                       << heads_[b] << " lists head " << heads_[e.to]
                       << " as an overlay neighbor but not the reverse");
    }
  }

  // Second rings: each head's row expanded once under a stamp of its own
  // (the head and its row neighbors stamped first), in row order into a
  // block reserved for every two-hop walk and trimmed once at the end, so
  // the rows cost O(h * deg^2) and three heap blocks.
  std::size_t walks = 0;
  for (std::uint32_t a = 0; a < h; ++a) {
    for (const OverlayEdge& e : overlay_[a]) walks += overlay_[e.to].size();
  }
  second_ring_.reset(h, walks);
  std::fill(seen.begin(), seen.end(), 0);
  for (std::uint32_t a = 0; a < h; ++a) {
    seen[a] = a + 1;
    for (const OverlayEdge& e : overlay_[a]) seen[e.to] = a + 1;
    for (const OverlayEdge& e : overlay_[a]) {
      for (const OverlayEdge& f : overlay_[e.to]) {
        if (seen[f.to] == a + 1) continue;
        seen[f.to] = a + 1;
        second_ring_.push_back(f.to);
      }
    }
    second_ring_.close_row();
    const std::span<std::uint32_t> row = second_ring_.mutable_row(a);
    std::sort(row.begin(), row.end());
  }
  second_ring_.shrink_to_fit();

  // Distance table, kept for the next-clusterhead rule and for candidate
  // ordering in the service layer (nearest advertising domain first).  A
  // shortest path has at most h - 1 edges, so the distances fit below
  // kUnreachableDistance.
  WCDS_REQUIRE(h < kUnreachableDistance,
               "ClusterheadRouter: " << h << " clusterheads overflow the "
                                        "16-bit distance table");
  dist_.assign(h * h, kUnreachableDistance);

  // Sources in overlay-BFS order, component by component, so the sources
  // of one pass below sit close together and their frontiers share heads.
  std::vector<std::uint32_t> order;
  order.reserve(h);
  std::fill(seen.begin(), seen.end(), 0);
  for (std::uint32_t root = 0; root < h; ++root) {
    if (seen[root] != 0) continue;
    seen[root] = 1;
    order.push_back(root);
    for (std::size_t at = order.size() - 1; at < order.size(); ++at) {
      for (const OverlayEdge& e : overlay_[order[at]]) {
        if (seen[e.to] != 0) continue;
        seen[e.to] = 1;
        order.push_back(e.to);
      }
    }
  }

  // Level-synchronous BFS from kLanes sources per pass, one bit per source
  // (lane i is source order[base + i]) in each head's reached and frontier
  // words.  At each level a head ORs its overlay neighbors' frontiers; the
  // bits it has not reached yet are the sources at this distance, and they
  // form its next frontier.  The overlay is symmetric, so d(s, v) goes into
  // row v and each head writes only its own row.
  std::vector<Lanes> lanes(3 * h);
  Lanes* const reached = lanes.data();
  Lanes* frontier = reached + h;
  Lanes* next = frontier + h;
  for (std::size_t base = 0; base < h; base += kLanes) {
    const std::size_t batch = std::min(kLanes, h - base);
    std::fill(lanes.begin(), lanes.end(), Lanes{});
    for (std::size_t i = 0; i < batch; ++i) {
      const std::uint32_t src = order[base + i];
      reached[src][i / 64] = frontier[src][i / 64] = 1ULL << (i % 64);
      dist_[static_cast<std::size_t>(src) * h + src] = 0;
    }
    for (std::uint16_t level = 1;; ++level) {
      bool grew = false;
      for (std::uint32_t v = 0; v < h; ++v) {
        Lanes fresh{};
        for (const OverlayEdge& e : overlay_[v]) {
          for (std::size_t w = 0; w < kLaneWords; ++w) {
            fresh[w] |= frontier[e.to][w];
          }
        }
        std::uint64_t any = 0;
        for (std::size_t w = 0; w < kLaneWords; ++w) {
          fresh[w] &= ~reached[v][w];
          reached[v][w] |= fresh[w];
          any |= fresh[w];
        }
        next[v] = fresh;
        if (any == 0) continue;
        grew = true;
        std::uint16_t* const row = &dist_[static_cast<std::size_t>(v) * h];
        for (std::size_t w = 0; w < kLaneWords; ++w) {
          for (std::uint64_t bits = fresh[w]; bits != 0; bits &= bits - 1) {
            row[order[base + w * 64 + std::countr_zero(bits)]] = level;
          }
        }
      }
      if (!grew) break;
      std::swap(frontier, next);
    }
  }
}

NodeId ClusterheadRouter::next_clusterhead(NodeId from_head,
                                           NodeId to_head) const {
  WCDS_REQUIRE_BOUNDS(from_head < index_.size() && to_head < index_.size(),
                      "next_clusterhead: head " << from_head << " or "
                          << to_head << " out of range");
  const std::uint32_t from = index_[from_head];
  const std::uint32_t to = index_[to_head];
  if (from == kNoHead || to == kNoHead) return kInvalidNode;
  if (from == to) return from_head;
  const std::uint32_t step = next_head_index(from, to);
  return step == kNoHead ? kInvalidNode : heads_[step];
}

std::uint32_t ClusterheadRouter::overlay_distance(NodeId from_head,
                                                  NodeId to_head) const {
  WCDS_REQUIRE_BOUNDS(from_head < index_.size() && to_head < index_.size(),
                      "overlay_distance: head " << from_head << " or "
                          << to_head << " out of range");
  const std::uint32_t from = index_[from_head];
  const std::uint32_t to = index_[to_head];
  if (from == kNoHead || to == kNoHead) return kNoHead;
  const std::uint16_t d = distance_row(from)[to];
  return d == kUnreachableDistance ? kNoHead : d;
}

ClusterheadRouter::Leg ClusterheadRouter::leg(std::uint32_t from_idx,
                                               std::uint32_t to_idx) const {
  const auto row = overlay_[from_idx];
  const auto it = std::find_if(
      row.begin(), row.end(),
      [&](const OverlayEdge& e) { return e.to == to_idx; });
  if (it == row.end()) {
    throw std::logic_error("ClusterheadRouter::leg: not an overlay edge");
  }
  return Leg{it->via1, it->via2};
}

Route ClusterheadRouter::route(NodeId src, NodeId dst) const {
  WCDS_REQUIRE_BOUNDS(src < clusterhead_.size() && dst < clusterhead_.size(),
                      "ClusterheadRouter::route: endpoint " << src << " or "
                          << dst << " out of range");
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
    const Hop hop = next_hop(at, goal);
    if (hop.head == kNoHead) return r;  // overlay disconnected: undeliverable
    r.path.push_back(hop.leg.via1);
    if (hop.leg.via2 != kInvalidNode) r.path.push_back(hop.leg.via2);
    r.path.push_back(heads_[hop.head]);
    at = hop.head;
  }
  if (dst != dst_head) r.path.push_back(dst);
  r.delivered = true;
  return r;
}

}  // namespace wcds::routing
