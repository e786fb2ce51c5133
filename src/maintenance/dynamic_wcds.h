// Dynamic WCDS maintenance under node mobility and on/off events
// (paper, Section 4.2, final paragraphs).
//
// The paper states the key technique and defers the full procedure to a
// later paper: "maintain the MIS in the unit-disk graph at all times, and
// maintain information about all MIS-dominators within three-hop distance
// ... the nodes that get affected are within three-hop distance."  We
// implement exactly that contract, with work per event bounded by the
// 3-hop balls around the event site, independent of n:
//
//  * the radio environment is an IncrementalUdg: a grid-cell index of
//    positions plus sorted adjacency rows, of which an event rewrites only
//    the moved node's row and the rows of its old and new neighbors;
//  * protocol-state repair is local: only nodes within the 3-hop balls of
//    the event site (old and new position) can change role, and every
//    bounded BFS runs on one reused graph::LocalBfs;
//  * bridges are listed at both endpoints, with a via-node count per node,
//    and is_additional_dominator() is O(1).  An event drops the bridges of
//    the MIS nodes in those balls, but runs a fresh 3-hop search only from
//    the event node, its MIS neighbors and promoted nodes; every other
//    affected MIS node re-derives its bridges from its previous partner
//    list (the argument is in DynamicWcds::rebridge);
//  * the event path keeps its sets in epoch-marked member vectors, so in
//    steady state it makes no heap allocation;
//  * invariants after every event: S is an MIS of the active graph, every
//    3-hop MIS pair is bridged by an additional-dominator, and hence
//    S + C is a WCDS of every connected component.
//
// Whole-network passes are left to inspection and checking: active_graph(),
// bridges(), dominators(), watchdog() and audit() (the shared checker).
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "geom/point.h"
#include "graph/graph.h"
#include "graph/local_bfs.h"
#include "graph/types.h"
#include "maintenance/incremental_udg.h"
#include "obs/recorder.h"

namespace wcds::maintenance {

struct RepairReport {
  std::size_t demoted = 0;          // MIS nodes removed
  std::size_t promoted = 0;         // MIS nodes added
  std::size_t bridges_changed = 0;  // additional-dominator entries touched
  std::size_t region_size = 0;      // nodes examined (3-hop locality witness)
  std::size_t searched = 0;         // nodes returned by the event's bounded
                                    // BFS runs (work witness)
};

struct Audit {
  bool mis_independent = false;
  bool mis_maximal = false;
  bool bridges_complete = false;     // every 3-hop MIS pair bridged
  bool weakly_connected = false;     // per connected component of the graph

  [[nodiscard]] bool ok() const {
    return mis_independent && mis_maximal && bridges_complete &&
           weakly_connected;
  }
};

class DynamicWcds {
 public:
  // Builds the initial MIS + bridges from scratch over the given deployment.
  // Throws std::invalid_argument for range <= 0 or a position that is not
  // finite or lies outside the int32 cell grid (IncrementalUdg).
  explicit DynamicWcds(std::vector<geom::Point> points, double range = 1.0);

  // Events.  Each returns what the localized repair touched.  move_node
  // rejects a bad destination like the constructor, before changing state.
  RepairReport move_node(NodeId u, const geom::Point& destination);
  RepairReport deactivate(NodeId u);   // switch the radio off
  RepairReport activate(NodeId u);     // switch it back on (same position)

  // Observability hook.  Defaults to the ambient obs::global_recorder() at
  // construction time; null records nothing.  Every event then feeds its
  // RepairReport (demotions/promotions/bridge churn, region-size histogram)
  // and a wall-clock phase timing into the recorder.
  void set_recorder(obs::Recorder* recorder) noexcept { recorder_ = recorder; }
  [[nodiscard]] obs::Recorder* recorder() const noexcept { return recorder_; }

  // State inspection.
  // The active UDG (inactive nodes isolated), materialized in O(n + m).
  [[nodiscard]] graph::Graph active_graph() const {
    return graph_.materialize();
  }
  [[nodiscard]] bool is_active(NodeId u) const { return graph_.is_active(u); }
  [[nodiscard]] bool is_mis_dominator(NodeId u) const { return mis_[u]; }
  [[nodiscard]] bool is_additional_dominator(NodeId u) const {
    return via_count_[u] > 0;
  }
  [[nodiscard]] std::vector<NodeId> dominators() const;  // S + C, ascending
  // (a, b) with a < b, both MIS and exactly 3 hops apart -> the additional
  // dominator bridging them (a neighbor of a or b on a 3-hop path).  Built
  // on demand in O(n + B log B); the event path keeps bridges per node.
  [[nodiscard]] std::map<std::pair<NodeId, NodeId>, NodeId> bridges() const;
  [[nodiscard]] std::size_t node_count() const { return graph_.node_count(); }
  [[nodiscard]] const geom::Point& position(NodeId u) const {
    return graph_.position(u);
  }

  // Full global invariant check (test oracle; not part of the repair path):
  // the shared checker (check/audit.h) on one active-graph snapshot, whose
  // MIS balls also check the bridge records.  Never raises.
  [[nodiscard]] Audit audit() const { return audit(graph_.materialize()); }

  // Liveness watchdog: audit the maintained invariants and, when any fail,
  // run a repair pass seeded at every node.  Per-event localized repairs
  // keep the invariants by construction, so this is the recovery path for
  // compound fault sequences (crash storms via maintenance::run_crash_schedule)
  // or external state perturbation.  Returns the all-zero report when the
  // audit already passed.
  RepairReport watchdog();

 private:
  friend class DynamicWcdsTestPeer;  // tests seed state corruptions

  // Debug/test tripwire: runs check::audit_invariants (unit-disk bounds,
  // active-node scope) and the bridge audit on one snapshot after `event`.
  // No-op unless check::audits_enabled().
  void maybe_audit(const char* event) const;
  // audit() of `g`, a snapshot of the active graph.
  [[nodiscard]] Audit audit(const graph::Graph& g) const;
  // Invalidates every mark and empties region_.
  void next_epoch();
  // Starts an event at `u`: a new mark epoch, and u's 3-hop ball in the
  // pre-event graph as the first part of the region.  Call before the graph
  // changes.
  void begin_event(NodeId u);
  // Localized repair around the event node `u` (begin_event() ran before
  // the graph changed), or of the whole network when u == kInvalidNode.
  RepairReport repair(NodeId u);
  // Fold one event's RepairReport into the recorder (no-op when null).
  void record_event(const char* event, const RepairReport& report) const;
  // Drops every bridge with an endpoint in affected_ and re-derives every
  // 3-hop pair with an endpoint there, counting both in
  // report.bridges_changed.  `u` as for repair().
  void rebridge(NodeId u, RepairReport& report);
  // Runs a's 3-hop ball and bridges every partner b (MIS, 3 hops away) for
  // which a derives the pair; hands the others to their deriving endpoint
  // through incoming_ when that endpoint has no ball of its own.
  void bridge_pairs_by_ball(NodeId a, RepairReport& report);
  // The smallest v in N(a) on a path a-v-x-b, or kInvalidNode when there is
  // none or a and b share a neighbor (then they are not 3 hops apart).
  [[nodiscard]] NodeId row_via(NodeId a, NodeId b) const;
  [[nodiscard]] bool bridge_valid(NodeId a, NodeId b, NodeId v) const;

  // A bridge between MIS nodes a < b, 3 hops apart, through `via`.
  struct Bridge {
    NodeId a;
    NodeId b;
    NodeId via;
  };
  // The bridge of pair (a, b), or null: a scan of a's short list.
  [[nodiscard]] const Bridge* find_bridge(NodeId a, NodeId b) const;
  void add_bridge(const Bridge& bridge);
  void erase_bridge(Bridge bridge);

  // Per-node event state, valid only while `epoch` equals epoch_: a new
  // event invalidates every mark by bumping epoch_, in O(1).
  struct Mark {
    std::uint32_t epoch = 0;
    std::uint8_t d_old = 0;  // hops from the event node before the event
    std::uint8_t d_new = 0;  // ... and after it; 4 outside the 3-hop ball
    std::uint8_t flags = 0;
  };
  Mark& mark(NodeId u);
  [[nodiscard]] Mark peek(NodeId u) const;
  // Adds u to `list` and sets `flag` on it, unless already set.
  void add_member(std::vector<NodeId>& list, NodeId u, std::uint8_t flag);

  // A pair (a, b) handed to a, with the via the pair had (snapshot_) or
  // kInvalidNode (incoming_).
  struct Partner {
    NodeId a;
    NodeId b;
    NodeId via;
  };

  IncrementalUdg graph_;
  std::vector<bool> mis_;
  // Per node: the bridges it is an endpoint of, so each bridge is listed at
  // both endpoints.  A list is short (Lemma 2 bounds the MIS nodes within 3
  // hops), which keeps every lookup and repair local.
  std::vector<std::vector<Bridge>> bridges_;
  // Per node: how many bridges it is the via node of.
  std::vector<std::uint32_t> via_count_;
  graph::LocalBfs bfs_;  // scratch for every bounded BFS on the event path
  obs::Recorder* recorder_ = nullptr;

  // Event scratch, reused so that the event path does not allocate.
  std::vector<Mark> marks_;
  std::uint32_t epoch_ = 0;
  std::vector<NodeId> region_;      // balls of the event site, ascending
  std::vector<NodeId> candidates_;  // region + demoted + their neighbors
  std::vector<NodeId> demoted_;
  std::vector<NodeId> promoted_;
  std::vector<NodeId> affected_;    // nodes whose bridges are re-derived
  std::vector<Partner> snapshot_;   // pre-event bridges of affected_ nodes
  std::vector<Partner> incoming_;   // partners found by other nodes' balls
};

}  // namespace wcds::maintenance
