// Bounded breadth-first search over reusable scratch state.
//
// Every truncated BFS in the library goes through LocalBfs: the 3-hop balls
// and bridge searches of maintenance::DynamicWcds, the MIS lemma auditors
// in mis/properties and graph::ball.  One object keeps epoch-stamped hop
// distances and the list of nodes the last run touched.  A run bumps the
// epoch instead of clearing anything, so it costs O(ball + edges inside
// the ball), not O(n); storage grows to the largest graph seen and is
// reused across graphs of any size.
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

template <class Stamp>
class BasicLocalBfs {
 public:
  // Visits every node within `radius` hops of `center` and returns them in
  // BFS order: center first, distances non-decreasing, ties in neighbor-row
  // order.  The span stays valid until the next run.
  template <class G>
  std::span<const NodeId> run(const G& g, NodeId center, HopCount radius) {
    WCDS_DCHECK_LT(center, g.node_count(), "LocalBfs: center out of range");
    begin(g.node_count());
    visit(center, 0);
    for (std::size_t head = 0; head < touched_.size(); ++head) {
      const NodeId u = touched_[head];
      const HopCount d = slots_[u].dist;
      if (d >= radius) break;  // BFS order: everything after is at `radius`
      for (const NodeId v : g.neighbors(u)) {
        if (slots_[v].stamp != epoch_) visit(v, d + 1);
      }
    }
    return touched_;
  }

  // Hop distance from the last run's center; kUnreachable outside its ball.
  [[nodiscard]] HopCount distance(NodeId u) const {
    return u < slots_.size() && slots_[u].stamp == epoch_ ? slots_[u].dist
                                                           : kUnreachable;
  }

 private:
  void begin(std::size_t n) {
    if (slots_.size() < n) slots_.resize(n);
    touched_.clear();
    if (++epoch_ == Stamp{0}) {  // wrapped: no old stamp may alias the epoch
      for (Slot& slot : slots_) slot.stamp = Stamp{0};
      epoch_ = Stamp{1};
    }
  }

  void visit(NodeId v, HopCount d) {
    slots_[v] = {epoch_, d};
    touched_.push_back(v);
  }

  // One slot per node, stamp next to distance so a visit touches one cache
  // line; slot.stamp == epoch_ <=> the node is in the last ball.
  struct Slot {
    Stamp stamp = Stamp{0};
    HopCount dist = kUnreachable;
  };
  std::vector<Slot> slots_;
  std::vector<NodeId> touched_;
  Stamp epoch_ = Stamp{0};
};

using LocalBfs = BasicLocalBfs<std::uint32_t>;

}  // namespace wcds::graph
