// Clusterhead unicast routing over the Algorithm II spanner (paper, §4.2).
//
// "For any pair of adjacent nodes in G, the unicast routing between them can
//  be performed in a single hop.  For any pair of non-adjacent nodes, the
//  unicast routing will follow the min-hop path in the spanner G'.  The
//  MIS-dominators (clusterheads) maintain the routing tables.  If a non
//  MIS-dominator node needs to send a packet to a non-adjacent node, it
//  sends the packet along with the destination's ID to its clusterhead.  The
//  clusterhead uses its routing tables to identify the next clusterhead on
//  the path to the destination's clusterhead, and uses its 2HopDomList and
//  3HopDomList to identify the path to the next clusterhead."
//
// Concretely: the clusterhead overlay graph H has the MIS-dominators as
// vertices and an edge per 2-hop pair (expanded through the 2HopDomList
// intermediate) and per bridged 3-hop pair (expanded through the selected
// additional-dominator path u-v-x-w).  H is symmetric, and a bit-parallel
// BFS over H, 256 sources per level-synchronous pass, fills an h x h table
// of overlay hop distances.  There is no separate next-hop table: the next
// clusterhead from a toward b is the first head in a's overlay row, in row
// order, that is one hop closer to b.  That is exactly the first hop a FIFO
// BFS from a assigns to b, because the BFS frontier is ordered by the row
// index of its first hops.  Every expanded hop is a black (spanner) edge.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/flat_rows.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "routing/router.h"
#include "wcds/algorithm2.h"

namespace wcds::routing {

class ClusterheadRouter final : public Router {
 public:
  // Builds clusterhead assignments, the overlay, its second rings and the
  // distance table from an Algorithm II run on g; the table comes from a
  // bit-parallel BFS that takes 256 source heads per pass and needs a fixed
  // number of heap blocks whatever h is.  Both arguments are borrowed: `g`
  // and the view's backing storage must outlive the router.  The dominator
  // lists are only read during construction; throws std::invalid_argument
  // unless they cover every node of g (an Algorithm I report has none) and
  // every overlay edge they yield has its reverse (the next-clusterhead rule
  // reads distances to a head off that head's own row).
  ClusterheadRouter(const graph::Graph& g, core::Algorithm2View wcds);

  // Route a unicast packet.  Adjacent pairs use the direct edge; everything
  // else travels src -> clusterhead -> ... -> clusterhead -> dst over black
  // edges only.
  [[nodiscard]] Route route(NodeId src, NodeId dst) const override;

  [[nodiscard]] Strategy strategy() const noexcept override {
    return Strategy::kClusterhead;
  }

  // The clusterhead serving node u (u itself if u is an MIS-dominator).
  [[nodiscard]] NodeId clusterhead(NodeId u) const { return clusterhead_[u]; }

  // The next clusterhead after head `from` on the overlay path toward head
  // `to`; kInvalidNode if unreachable or either node is not a clusterhead,
  // std::out_of_range if either is not a node of g.  This is exactly the
  // routing-table entry the paper stores at each MIS-dominator, read off
  // the distance table by the rule in the header comment.
  [[nodiscard]] NodeId next_clusterhead(NodeId from_head, NodeId to_head) const;

  // The intermediates of an overlay edge, which expand it into the G-path
  // between its heads: the 2HopDomList / 3HopDomList lookup of Section 4.2.
  // via2 is kInvalidNode for 2-hop edges.  Plain values, so per-packet hot
  // paths (the service engine walks millions of legs) allocate nothing.
  struct Leg {
    NodeId via1 = kInvalidNode;
    NodeId via2 = kInvalidNode;
  };

  // One entry of a head's overlay row: the neighbor head and the leg to it.
  struct OverlayEdge {
    std::uint32_t to = 0;              // dense head index
    NodeId via1 = kInvalidNode;        // always set
    NodeId via2 = kInvalidNode;        // set for 3-hop edges
  };

  [[nodiscard]] bool is_clusterhead(NodeId u) const {
    return index_[u] != 0xFFFFFFFFu;
  }

  // All MIS-dominators, ascending.  The dense head index used by
  // overlay-table accessors is the position in this span.
  [[nodiscard]] std::span<const NodeId> heads() const { return heads_; }

  // Dense head index of node u, or 0xFFFFFFFF if u is not a clusterhead.
  [[nodiscard]] std::uint32_t head_index(NodeId u) const { return index_[u]; }

  // Overlay (clusterhead-graph) hop distance between two heads;
  // 0xFFFFFFFF if unreachable or either node is not a clusterhead,
  // std::out_of_range if either is not a node of g.  O(1): filled by the
  // table-building BFS.
  [[nodiscard]] std::uint32_t overlay_distance(NodeId from_head,
                                               NodeId to_head) const;

  // Dense-index forms of the table accessors, for per-request hot paths that
  // already hold head indices.  distance_row(a)[b] is the overlay hop count
  // from head a to head b (equal to that from b to a), kUnreachableDistance
  // if unreachable: one contiguous row, so a scan over candidate heads reads
  // a single table row.  next_hop(a, b) is the next head after a toward b
  // (head 0xFFFFFFFF if unreachable or a == b) together with the leg of that
  // overlay edge, found in one scan of a's overlay row against b's distance
  // row; next_head_index(a, b) is its head.  leg(a, b) is the intermediates
  // of overlay edge a -> b (std::logic_error if a -> b is not an overlay
  // edge), and overlay_row(a) head a's overlay edges in row order.
  static constexpr std::uint16_t kUnreachableDistance = 0xFFFFu;
  [[nodiscard]] std::span<const std::uint16_t> distance_row(
      std::uint32_t head_idx) const {
    return std::span<const std::uint16_t>(dist_).subspan(
        static_cast<std::size_t>(head_idx) * heads_.size(), heads_.size());
  }
  struct Hop {
    std::uint32_t head = 0xFFFFFFFFu;  // dense head index
    Leg leg;
  };
  [[nodiscard]] Hop next_hop(std::uint32_t from_idx,
                             std::uint32_t to_idx) const {
    // The overlay is symmetric, so b's own row holds every head's distance
    // to b, and a walk toward b reads that one row at every hop.
    const std::span<const std::uint16_t> to_b = distance_row(to_idx);
    const std::uint32_t d = to_b[from_idx];
    if (d == 0 || d == kUnreachableDistance) return {};
    for (const OverlayEdge& e : overlay_[from_idx]) {
      if (to_b[e.to] + 1u == d) return {e.to, {e.via1, e.via2}};
    }
    return {};  // not reached: a head at distance d has a neighbor at d - 1
  }
  [[nodiscard]] std::uint32_t next_head_index(std::uint32_t from_idx,
                                              std::uint32_t to_idx) const {
    return next_hop(from_idx, to_idx).head;
  }
  [[nodiscard]] Leg leg(std::uint32_t from_idx, std::uint32_t to_idx) const;
  [[nodiscard]] std::span<const OverlayEdge> overlay_row(
      std::uint32_t head_idx) const {
    return overlay_[head_idx];
  }
  // The heads exactly two overlay hops from head a, ascending by dense
  // index: distance_row(a)[b] == 2 for exactly these b.  Built from the
  // overlay rows alone, so a search for the nearest head with some
  // property reads no distance table when it stops within two hops.
  [[nodiscard]] std::span<const std::uint32_t> second_ring(
      std::uint32_t head_idx) const {
    return second_ring_[head_idx];
  }

  // Diagnostics for experiment T5.
  [[nodiscard]] std::size_t clusterhead_count() const {
    return heads_.size();
  }
  [[nodiscard]] std::size_t overlay_edge_count() const {
    return overlay_edges_;
  }
  // Total overlay-distance table entries held across all clusterheads (one
  // per ordered head pair; the next clusterhead is read off them).
  [[nodiscard]] std::size_t table_entries() const {
    return heads_.size() * heads_.size();
  }

 private:
  const graph::Graph& g_;
  std::vector<NodeId> clusterhead_;
  std::vector<NodeId> heads_;          // MIS-dominators, ascending
  std::vector<std::uint32_t> index_;   // node -> dense head index
  // Overlay edges, one flat row per head (by dense head index), in list
  // order; the row order fixes which shortest path next_hop takes.
  graph::FlatRows<OverlayEdge> overlay_;
  std::size_t overlay_edges_ = 0;
  // Heads at overlay distance 2, one ascending row per head.
  graph::FlatRows<std::uint32_t> second_ring_;
  // dist_[a * heads + b]: overlay hop count from a to b
  // (kUnreachableDistance if unreachable).
  std::vector<std::uint16_t> dist_;
};

}  // namespace wcds::routing
