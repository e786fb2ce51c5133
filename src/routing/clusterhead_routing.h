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
// additional-dominator path u-v-x-w).  Next-clusterhead tables are built by
// BFS per clusterhead over H.  Every expanded hop is a black (spanner) edge.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "routing/router.h"
#include "wcds/algorithm2.h"

namespace wcds::routing {

class ClusterheadRouter final : public Router {
 public:
  // Builds clusterhead assignments, the overlay and the routing tables from
  // an Algorithm II run on g.  Both arguments are borrowed: `g` and the
  // view's backing storage must outlive the router.  The dominator lists
  // are only read during construction.
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
  // `to`; kInvalidNode if unreachable.  This is exactly the routing-table
  // entry the paper stores at each MIS-dominator.
  [[nodiscard]] NodeId next_clusterhead(NodeId from_head, NodeId to_head) const;

  // Expand the overlay edge from head `from` to its overlay-neighbor head
  // `to` into the G-path between them (excluding `from`, including `to`):
  // the 2HopDomList / 3HopDomList lookup of Section 4.2.
  [[nodiscard]] std::vector<NodeId> overlay_leg(NodeId from_head,
                                                NodeId to_head) const;

  // The intermediates of an overlay edge; via2 is kInvalidNode for 2-hop
  // edges.  leg() below is the allocation-free form of overlay_leg for
  // per-packet hot paths (the service engine walks millions of legs).
  struct Leg {
    NodeId via1 = kInvalidNode;
    NodeId via2 = kInvalidNode;
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
  // 0xFFFFFFFF if unreachable.  O(1): filled by the table-building BFS.
  [[nodiscard]] std::uint32_t overlay_distance(NodeId from_head,
                                               NodeId to_head) const;

  // Dense-index forms of the table accessors, for per-request hot paths that
  // already hold head indices.  distance_row(a)[b] is the overlay hop count
  // from head a to head b, kUnreachableDistance if unreachable: one
  // contiguous row, so a scan over candidate heads reads a single table
  // row.  next_head_index(a, b) is the dense index of the next head after a
  // toward b (0xFFFFFFFF if unreachable or a == b), and leg(a, b) the
  // intermediates of overlay edge a -> b (std::logic_error if a -> b is
  // not an overlay edge).
  static constexpr std::uint16_t kUnreachableDistance = 0xFFFFu;
  [[nodiscard]] std::span<const std::uint16_t> distance_row(
      std::uint32_t head_idx) const {
    return std::span<const std::uint16_t>(dist_).subspan(
        static_cast<std::size_t>(head_idx) * heads_.size(), heads_.size());
  }
  [[nodiscard]] std::uint32_t next_head_index(std::uint32_t from_idx,
                                              std::uint32_t to_idx) const {
    return next_[static_cast<std::size_t>(from_idx) * heads_.size() + to_idx];
  }
  [[nodiscard]] Leg leg(std::uint32_t from_idx, std::uint32_t to_idx) const;

  // Diagnostics for experiment T5.
  [[nodiscard]] std::size_t clusterhead_count() const {
    return heads_.size();
  }
  [[nodiscard]] std::size_t overlay_edge_count() const {
    return overlay_edges_;
  }
  // Total next-hop table entries held across all clusterheads.
  [[nodiscard]] std::size_t table_entries() const {
    return heads_.size() * heads_.size();
  }

 private:
  const graph::Graph& g_;
  std::vector<NodeId> clusterhead_;
  std::vector<NodeId> heads_;          // MIS-dominators, ascending
  std::vector<std::uint32_t> index_;   // node -> dense head index
  // Per ordered head pair: the intermediate(s), or empty if not an overlay
  // edge.  Stored sparsely per head.
  struct OverlayEdge {
    std::uint32_t to;                  // dense head index
    NodeId via1 = kInvalidNode;        // always set
    NodeId via2 = kInvalidNode;        // set for 3-hop edges
  };
  std::vector<std::vector<OverlayEdge>> overlay_;
  std::size_t overlay_edges_ = 0;
  // next_[a * heads + b]: dense index of the next head after a toward b.
  std::vector<std::uint32_t> next_;
  // dist_[a * heads + b]: overlay hop count from a to b
  // (kUnreachableDistance if unreachable).
  std::vector<std::uint16_t> dist_;
};

}  // namespace wcds::routing
