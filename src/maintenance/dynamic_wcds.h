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
//    so an event drops and re-derives only the bridges of the MIS nodes in
//    those balls, and is_additional_dominator() is O(1);
//  * invariants after every event: S is an MIS of the active graph, every
//    3-hop MIS pair is bridged by an additional-dominator, and hence
//    S + C is a WCDS of every connected component.
//
// Whole-network passes are left to inspection and checking: active_graph(),
// bridges(), dominators(), audit() and watchdog().
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

  // Full global invariant check (test oracle; not part of the repair path).
  [[nodiscard]] Audit audit() const;

  // Liveness watchdog: audit the maintained invariants and, when any fail,
  // run a repair pass seeded at every node.  Per-event localized repairs
  // keep the invariants by construction, so this is the recovery path for
  // compound fault sequences (crash storms via maintenance::run_crash_schedule)
  // or external state perturbation.  Returns the all-zero report when the
  // audit already passed.
  RepairReport watchdog();

 private:
  // Debug/test tripwire: runs check::audit_invariants (unit-disk bounds,
  // active-node scope) plus the bridge-completeness audit after `event`.
  // No-op unless check::audits_enabled().
  void maybe_audit(const char* event) const;
  // Localized repair around `seeds`; `old_region` is the 3-hop ball of the
  // event site in the pre-event graph.
  RepairReport repair(const std::vector<NodeId>& seeds,
                      const std::vector<NodeId>& old_region);
  // Fold one event's RepairReport into the recorder (no-op when null).
  void record_event(const char* event, const RepairReport& report) const;
  // Re-derive bridges for every 3-hop pair with an endpoint in `mis_nodes`.
  std::size_t rebridge(const std::vector<NodeId>& mis_nodes);
  [[nodiscard]] std::vector<NodeId> three_hop_ball(NodeId center);
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
};

}  // namespace wcds::maintenance
