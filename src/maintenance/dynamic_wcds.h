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
//    the event site (old and new position) can change role, the MIS repair
//    reads only the rows of the event node and of the nodes it demotes, and
//    every bounded BFS runs on one reused graph::LocalBfs;
//  * a bridge is a function of the active graph and the MIS alone: every
//    MIS pair (a, b), name a < name b, exactly 3 hops apart, through the
//    smallest neighbor of a on a 3-hop path.  So an event drops the
//    bridges of demoted nodes, adds those of promoted nodes from their own
//    balls, and re-judges only the pairs of continuing MIS nodes with a
//    path of at most 3 hops through the event node, before or after it
//    (the argument is in DynamicWcds::rebridge); every other bridge keeps
//    its pair and its via;
//  * bridges are listed at both endpoints, with a via-node count per node,
//    and is_additional_dominator() is O(1);
//  * the event path keeps its sets in epoch-marked member vectors, so in
//    steady state it makes no heap allocation;
//  * state lives by storage slot (IncrementalUdg): mis_, bridges_ (whose
//    entries hold slots), via_count_, marks_, row_via's stamps and the
//    LocalBfs scratch, so the state of one ball sits in a few short slot
//    runs.  Names decide everything else: the lower ID wins a conflict,
//    promotion runs ascending by ID, a bridge is stored as (a, b) with
//    name a < name b and takes the via of smallest name, and every public
//    method takes and returns names;
//  * invariants after every event: S is an MIS of the active graph, every
//    3-hop MIS pair is bridged by an additional-dominator, and hence
//    S + C is a WCDS of every connected component.
//
// The backbone starts as Algorithm II's (core::algorithm2_components over
// the active graph, kLexSmallestPair): its MIS, and one bridge per 3-hop
// MIS pair through the smallest neighbor of the lower endpoint on a 3-hop
// path, the rule every event keeps.  watchdog() rebuilds through the same
// seed.  Other whole-network passes are left to inspection and checking:
// active_graph(), bridges(), dominators() and audit() (the shared checker).
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
  // Builds the deployment's unit-disk graph and seeds the maintained MIS and
  // bridges from Algorithm II over it (any number of components).
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
  [[nodiscard]] bool is_active(NodeId u) const {
    return graph_.is_active(graph_.slot_of(u));
  }
  [[nodiscard]] bool is_mis_dominator(NodeId u) const {
    return mis_[graph_.slot_of(u)];
  }
  [[nodiscard]] bool is_additional_dominator(NodeId u) const {
    return via_count_[graph_.slot_of(u)] > 0;
  }
  [[nodiscard]] std::vector<NodeId> dominators() const;  // S + C, ascending
  // (a, b) with a < b, both MIS and exactly 3 hops apart -> the additional
  // dominator bridging them (the smallest neighbor of a on a 3-hop path).
  // Built on demand in O(n + B log B); the event path keeps bridges per
  // node.
  [[nodiscard]] std::map<std::pair<NodeId, NodeId>, NodeId> bridges() const;
  [[nodiscard]] std::size_t node_count() const { return graph_.node_count(); }
  [[nodiscard]] const geom::Point& position(NodeId u) const {
    return graph_.position(graph_.slot_of(u));
  }

  // Full global invariant check (test oracle; not part of the repair path):
  // the shared checker (check/audit.h) on one active-graph snapshot, whose
  // MIS balls also check the bridge records.  Never raises.
  [[nodiscard]] Audit audit() const {
    return audit(graph_.materialize(), graph_.active_mask());
  }

  // Liveness watchdog: audit the maintained invariants and, when any fail,
  // drop the MIS and every bridge and seed them again from Algorithm II over
  // the active graph, as the constructor does.  Per-event localized repairs
  // keep the invariants by construction, but only from an audited start:
  // an event repairs what its own link changes break, never a foreign
  // perturbation of the state, even one inside its 3-hop ball.  So this is
  // the recovery path for compound fault sequences (crash storms via
  // maintenance::run_crash_schedule) and for external state perturbation,
  // which the next event's audit reports.  Returns the all-zero report when
  // the audit already passed; otherwise the MIS-mask differences as demoted
  // and promoted, bridges dropped plus added, region_size n and searched 0.
  RepairReport watchdog();

 private:
  // Tests seed state corruptions and call row_via (dynamic_wcds_peer.h).
  friend class DynamicWcdsTestPeer;

  // Private methods and members take and hold slots unless they say
  // otherwise.

  // Debug/test tripwire: runs check::audit_invariants (unit-disk bounds,
  // active-node scope) and the bridge audit on one snapshot after `event`.
  // No-op unless check::audits_enabled().
  void maybe_audit(const char* event) const;
  // audit() of `g` and `active`, snapshots of the active graph and the
  // on/off flags (by name).
  [[nodiscard]] Audit audit(const graph::Graph& g,
                            const std::vector<bool>& active) const;
  // Names order every rank and tie-break; slots only address storage.
  [[nodiscard]] NodeId name(NodeId s) const { return graph_.name_of(s); }
  [[nodiscard]] bool before(NodeId s, NodeId t) const {
    return name(s) < name(t);
  }
  [[nodiscard]] auto by_name() const {
    return [this](NodeId s, NodeId t) { return before(s, t); };
  }
  // Sets mis_ and the bridges from core::algorithm2_components over `g`,
  // the active graph by name, on a state with no MIS node and no bridge.
  void seed(const graph::Graph& g);
  // Starts an event at `u`: a new mark epoch (invalidating every mark), and
  // u's 3-hop ball in the pre-event graph as the first part of the region.
  // Call before the graph changes.
  void begin_event(NodeId u);
  // Localized repair around the event node `u` (begin_event() ran before
  // the graph changed).  Assumes an audited pre-event state: the MIS was
  // independent and maximal and every 3-hop pair bridged before the links
  // at u changed, so only u's row can hold a conflict.  A perturbation made
  // outside the events (elsewhere in the ball included) is not repaired
  // here; it is the watchdog's job.
  RepairReport repair(NodeId u);
  // Fold one event's RepairReport into the recorder (no-op when null).
  void record_event(const char* event, const RepairReport& report) const;
  // Drops the bridges of demoted nodes, re-judges the pairs of continuing
  // MIS nodes the event touched and adds the pairs of promoted nodes;
  // completes affected_ from the balls of demoted and promoted nodes and
  // sets report.bridges_changed from it.  `u` is the event node.
  void rebridge(NodeId u, RepairReport& report);
  // The smallest v in N(a) on a path a-v-x-b, or kInvalidNode when there is
  // none or a and b share a neighbor (then they are not 3 hops apart).
  // Stamps N(b) in near_b_, so each membership test is O(1).
  [[nodiscard]] NodeId row_via(NodeId a, NodeId b);
  [[nodiscard]] bool bridge_valid(NodeId a, NodeId b, NodeId v) const;

  // A bridge between MIS nodes a and b (name a < name b), 3 hops apart,
  // through `via`.
  struct Bridge {
    NodeId a;
    NodeId b;
    NodeId via;
  };
  // The bridge of pair (a, b), or null: a scan of a's short list.
  [[nodiscard]] const Bridge* find_bridge(NodeId a, NodeId b) const;
  void add_bridge(const Bridge& bridge);
  // Removes `bridge` from both lists and from the via count.
  void drop_bridge(Bridge bridge);
  // Removes `bridge` from the list of `endpoint`, one of its two endpoints.
  void erase_listing(NodeId endpoint, const Bridge& bridge);

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
  std::vector<NodeId> region_;      // balls of the event site, old first
  // Nodes that may have lost their dominator: u, u's old neighbors and the
  // closed neighborhoods of demoted nodes, ascending by name.
  std::vector<NodeId> candidates_;
  std::vector<NodeId> demoted_;
  std::vector<NodeId> promoted_;
  std::vector<NodeId> affected_;    // scope of report.bridges_changed
  // row_via's stamps: near_b_[x] == near_b_epoch_ <=> x is in N(b) for the
  // current call.
  std::vector<std::uint32_t> near_b_;
  std::uint32_t near_b_epoch_ = 0;
};

}  // namespace wcds::maintenance
