// Distributed Algorithm I (paper, Section 4.1).
//
// Three phases, chained by the elected leader:
//
//  A. Leader Election + spanning tree.  Extinction with echo in the style of
//     Cidon & Mokryn [9]: every node floods a CANDIDATE wave carrying its ID;
//     nodes adopt the smallest candidate seen (parent := first sender of the
//     winning wave, which under unit delays yields a BFS tree), suppress
//     waves larger than their current best, and convergecast COMPLETE up the
//     adoption tree.  The echo is passive: CANDIDATE carries [cid, parent],
//     so a neighbor's own CANDIDATE(cid) broadcast tells this node that the
//     neighbor is in wave cid (and, if parent names this node, that it is a
//     child).  A node completes its wave once every neighbor has been heard
//     in it and every child's subtree reported; the node whose own wave
//     completes is the leader.  A completed wave has been heard at every
//     neighbor of every node in it, so it spans the whole component and
//     only the component minimum's wave can complete.  One broadcast per
//     adoption and no reply traffic; expected O(n log n) messages for random
//     IDs; O(n) time.
//
//  B. Level Calculation.  The leader announces LEVEL 0; every node sets
//     level := parent's announced level + 1 upon its parent's announcement,
//     announces its own level (recording every neighbor's), and convergecasts
//     COMPLETE-B to the root.
//
//  C. Color Marking.  rank(u) = (level, ID), lexicographic.  The root marks
//     itself black and broadcasts BLACK; a white node hearing BLACK turns
//     gray and broadcasts GRAY; a white node that has heard GRAY from every
//     lower-rank neighbor turns black and broadcasts BLACK.  The black nodes
//     are the level-ranked MIS = the WCDS (Theorem 5).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "obs/recorder.h"
#include "sim/message.h"
#include "sim/runtime.h"
#include "wcds/wcds_result.h"

namespace wcds::fault {
struct Plan;
}  // namespace wcds::fault

namespace wcds::protocols {

// Enumerator values are stable wire/stats ids, not packing constants.
enum Algorithm1MessageType : sim::MessageType {
  kMsgCandidate = 20,   // broadcast [cid, parent]
  // 21 was RESP, a unicast echo per CANDIDATE; retired, never reused.
  kMsgCompleteA = 22,   // unicast   [cid]
  kMsgLevel = 23,       // broadcast [level]   wcds-lint: allow(paper-constant)
  kMsgCompleteB = 24,   // unicast   []        wcds-lint: allow(paper-constant)
  kMsgBlack = 25,       // broadcast []
  kMsgGrayI = 26,       // broadcast []
};

[[nodiscard]] const char* algorithm1_message_name(sim::MessageType type);

class Algorithm1Node final : public sim::ProtocolNode {
 public:
  void on_start(sim::Context& ctx) override;
  void on_receive(sim::Context& ctx, const sim::Message& msg) override;

  // Final-state accessors (valid after quiescence).
  [[nodiscard]] bool is_dominator() const { return color_ == Color::kBlack; }
  [[nodiscard]] bool is_leader() const { return leader_; }
  [[nodiscard]] std::uint32_t level() const { return level_; }
  [[nodiscard]] NodeId parent() const { return parent_; }

 private:
  enum class Color : std::uint8_t { kWhite, kGray, kBlack };

  // Phase A.
  void adopt(sim::Context& ctx, std::uint32_t cid, NodeId new_parent);
  void maybe_complete_wave(sim::Context& ctx);
  void become_leader(sim::Context& ctx);

  // Phase B.
  void announce_level(sim::Context& ctx, std::uint32_t level);
  void maybe_complete_levels(sim::Context& ctx);

  // Phase C.
  void start_marking(sim::Context& ctx);
  void turn_gray(sim::Context& ctx);
  void maybe_turn_black(sim::Context& ctx);

  static constexpr std::uint32_t kNoLevel = 0xFFFFFFFFu;
  // No wave tag yet; candidate ids are node ids, so never a real one.
  static constexpr std::uint32_t kNoCid = 0xFFFFFFFFu;

  // What this node knows about one neighbor, indexed by the neighbor's slot
  // in this node's sorted neighbor row.  The wave tags make the CANDIDATE
  // echo and COMPLETE-A count once per (neighbor, wave): a wave's cid never
  // returns once abandoned, so no reset is needed when a smaller wave is
  // adopted.
  struct NeighborState {
    std::uint32_t echo_cid = kNoCid;      // wave whose CANDIDATE was counted
    std::uint32_t complete_cid = kNoCid;  // wave whose COMPLETE-A was counted
    std::uint32_t level = kNoLevel;       // announced LEVEL
    bool complete_b = false;              // COMPLETE-B counted
    bool gray = false;                    // GRAY heard
  };
  // (level, id) rank of the neighbor in `slot` is below this node's rank.
  [[nodiscard]] bool ranks_below(const sim::Context& ctx,
                                 std::size_t slot) const;

  std::vector<NeighborState> neighbors_;

  // Phase A state.
  std::uint32_t best_cid_ = 0;
  NodeId parent_ = kInvalidNode;
  std::size_t echoes_ = 0;  // neighbors heard in wave best_cid_
  std::size_t children_ = 0;
  std::size_t children_complete_ = 0;
  bool sent_complete_a_ = false;
  bool leader_ = false;

  // Phase B state.
  std::uint32_t level_ = kNoLevel;
  std::size_t levels_known_ = 0;
  std::size_t level_children_complete_ = 0;
  bool sent_complete_b_ = false;

  // Phase C state.  Once this node's and every neighbor's level are known,
  // ranked_ is set and lower_not_gray_ counts the lower-rank neighbors that
  // have not sent GRAY yet: the marking predicate becomes one comparison.
  Color color_ = Color::kWhite;
  bool ranked_ = false;
  std::size_t lower_not_gray_ = 0;
};

struct DistributedAlgorithm1Run {
  core::WcdsResult wcds;
  sim::RunStats stats;
  // Component 0's elected leader (the historical single-component field);
  // `leaders` holds one per connected component, in component-index order.
  NodeId leader = kInvalidNode;
  std::vector<NodeId> leaders;
  std::vector<std::uint32_t> levels;
};

// Run the three phases to quiescence on g.  Under an asynchronous delay
// model the flood tree is an *arbitrary* spanning tree rather than a BFS
// tree — exactly the generality the paper claims (Section 2.2: "first we
// build an arbitrary spanning tree"); Theorems 4/5 still hold because
// levels remain tree distances.
//
// g need not be connected: the protocol is purely message-driven, so a run
// over any deployment is the composition of independent per-component runs
// (protocols/run_components.h) — each component elects its own leader and
// builds its own level-ranked MIS.  `threads` sizes the pool the components
// run on when there are several (0 = WCDS_THREADS env / hardware default,
// 1 = inline serial); outputs are byte-identical at any thread count.
//
// `recorder` (explicit, else the ambient obs::global_recorder(), else none)
// receives wall-clock phase timings, the sim's message metrics and the
// resulting |WCDS|.  Application code should prefer the wcds::core::build()
// facade (src/facade/build.h); calling this directly is deprecated outside
// the protocol layer itself.
// `faults` (null = the perfect radio, zero overhead) injects the plan's
// deterministic losses/duplicates/jitter/crashes; the protocol then runs
// wrapped in the fault::HardenedNode reliable transport and must still
// converge to an audited WCDS.
[[nodiscard]] DistributedAlgorithm1Run run_algorithm1(
    const graph::Graph& g, const sim::DelayModel& delays = sim::DelayModel::unit(),
    obs::Recorder* recorder = nullptr,
    const fault::Plan* faults = nullptr, std::size_t threads = 0);

}  // namespace wcds::protocols
