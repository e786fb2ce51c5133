// Breadth-first search over reusable scratch state.
//
// Every BFS over adjacency rows in the library is a LocalBfs run: hop
// distances, component labels and BFS trees (graph/bfs, graph/spanning_tree),
// the 3-hop balls and bridge searches of maintenance::DynamicWcds, the MIS
// lemma auditors in mis/properties, the WCDS sweep in check/audit and the
// fragment labels and ear search of wcds/resilient, the MIS-tree baseline.
// One object keeps epoch-stamped hop distances and discoverers and the last
// run's nodes in visit order.  A run bumps the epoch instead of clearing
// anything, so it costs O(ball + edges inside the ball), not O(n); storage
// grows to the largest graph seen and is reused across graphs of any size,
// so a run allocates only on a graph larger than any before.
//
// A run's contract:
//  - Centers: every center sits at distance 0 with no discoverer.  They are
//    visited in the order given; a repeated center is visited once.
//  - Admission: a node v not yet visited is discovered from u, the node
//    being expanded, iff admit(u, v); it then sits one hop further than u
//    with discoverer u.  Nodes are expanded in visit order and each row in
//    neighbor-row order, so the first admitting expansion wins.  admit runs
//    only on unvisited v, once per such edge looked at.  The default admits
//    every edge; a predicate filters edges (a live mask, the weakly induced
//    edges) or stops discovering (a target found).
//  - Radius: nodes at distance `radius` are not expanded; kUnreachable
//    means unbounded.
//
// The graph type needs node_count() and neighbors(u) yielding NodeIds
// (graph::Graph, maintenance's incremental UDG).  `Stamp` is the epoch
// counter type; on wrap-around every stamp is cleared once.  Only tests
// pick a narrow one, to exercise the wrap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "check/check.h"
#include "graph/types.h"

namespace wcds::graph {

// The default admission predicate: every edge.
struct AdmitAll {
  constexpr bool operator()(NodeId /*u*/, NodeId /*v*/) const noexcept {
    return true;
  }
};

template <class Stamp>
class BasicLocalBfs {
 public:
  // Visits every node within `radius` admitted hops of `centers` and returns
  // them in BFS order: centers first, distances non-decreasing, ties in
  // discovery order.  The span stays valid until the next run.
  template <class G, class Admit = AdmitAll>
  std::span<const NodeId> run(const G& g, std::span<const NodeId> centers,
                              HopCount radius, Admit&& admit = {}) {
    begin(g.node_count());
    // Locals, not members: the stores below cannot alias them, so the
    // loop keeps them in registers.
    const Stamp epoch = epoch_;
    Slot* const slots = slots_.data();
    NodeId* const order = order_.data();
    std::size_t end = 0;
    const auto visit = [&](NodeId v, HopCount d, NodeId from) {
      slots[v] = {epoch, d, from};
      order[end++] = v;  // at most n visits: order_ holds n entries
    };
    for (const NodeId c : centers) {
      WCDS_DCHECK_LT(c, g.node_count(), "LocalBfs: center out of range");
      if (slots[c].stamp != epoch) visit(c, 0, kInvalidNode);
    }
    for (std::size_t head = 0; head < end; ++head) {
      const NodeId u = order[head];
      const HopCount d = slots[u].dist;
      if (d >= radius) break;  // BFS order: everything after is at `radius`
      for (const NodeId v : g.neighbors(u)) {
        if (slots[v].stamp != epoch && admit(u, v)) visit(v, d + 1, u);
      }
    }
    return {order, end};
  }

  template <class G, class Admit = AdmitAll>
  std::span<const NodeId> run(const G& g, NodeId center, HopCount radius,
                              Admit&& admit = {}) {
    return run(g, std::span<const NodeId>(&center, 1), radius, admit);
  }

  // Hop distance from the last run's centers; kUnreachable outside its ball.
  [[nodiscard]] HopCount distance(NodeId u) const {
    return reached(u) ? slots_[u].dist : kUnreachable;
  }

  // The node that discovered u in the last run; kInvalidNode for a center
  // and outside the ball.
  [[nodiscard]] NodeId parent(NodeId u) const {
    return reached(u) ? slots_[u].parent : kInvalidNode;
  }

 private:
  [[nodiscard]] bool reached(NodeId u) const {
    return u < slots_.size() && slots_[u].stamp == epoch_;
  }

  void begin(std::size_t n) {
    if (slots_.size() < n) {
      slots_.resize(n);
      order_.resize(n);
    }
    if (++epoch_ == Stamp{0}) {  // wrapped: no old stamp may alias the epoch
      for (Slot& slot : slots_) slot.stamp = Stamp{0};
      epoch_ = Stamp{1};
    }
  }

  // One slot per node, stamp next to distance and discoverer so a visit
  // touches one cache line; slot.stamp == epoch_ <=> the node is in the
  // last ball.
  struct Slot {
    Stamp stamp = Stamp{0};
    HopCount dist = kUnreachable;
    NodeId parent = kInvalidNode;
  };
  std::vector<Slot> slots_;
  std::vector<NodeId> order_;  // the last run's nodes in visit order
  Stamp epoch_ = Stamp{0};
};

using LocalBfs = BasicLocalBfs<std::uint32_t>;

}  // namespace wcds::graph
