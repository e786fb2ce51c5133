// Distributed Algorithm II (paper, Section 4.2).
//
// Fully localized WCDS construction, O(n) time and O(n) messages
// (Theorem 12).  Message protocol, exactly as the paper lists it:
//
//   MIS-DOMINATOR          broadcast by a node turning MIS-dominator
//   GRAY                   broadcast by a node turning gray
//   1-HOP-DOMINATORS       a gray node's 1HopDomList, once it has heard a
//                          color from every neighbor
//   2-HOP-DOMINATORS       a gray node's 2HopDomList, once it has heard
//                          1-HOP-DOMINATORS from every gray neighbor
//   SELECTION              unicast u -> v choosing v as additional-dominator
//                          for the 3-hop pair (u, w) via path u-v-x-w
//   ADDITIONAL-DOMINATOR   broadcast by v confirming; the named intermediate
//                          x forwards it to w (the paper states w receives
//                          the confirmation; with one-hop radios the named
//                          x must relay it — an inferred detail, see
//                          DESIGN.md)
//
// Node rules (numbered as in the paper's prose):
//  1. A white node whose ID is lowest among its white neighbors turns black
//     (MIS-dominator) and broadcasts MIS-DOMINATOR.
//  2. A white node hearing MIS-DOMINATOR turns gray, records the sender in
//     its 1HopDomList and broadcasts GRAY (first time); every MIS-DOMINATOR
//     sender is recorded.
//  3. A white node that has heard GRAY from all lower-ID neighbors turns
//     black and broadcasts MIS-DOMINATOR.
//  8. An MIS-dominator u hearing 2-HOP-DOMINATORS entry (w, x) from v, with
//     w unknown at <= 2 hops, not already bridged, and id(u) < id(w), adds
//     (w, v, x) to its 3HopDomList and unicasts SELECTION to v.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "graph/flat_rows.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "obs/recorder.h"
#include "sim/message.h"
#include "sim/runtime.h"
#include "wcds/algorithm2.h"
#include "wcds/wcds_result.h"

namespace wcds::fault {
struct Plan;
}  // namespace wcds::fault

namespace wcds::protocols {

// Message types (values are stable for stats reporting).
enum Algorithm2MessageType : sim::MessageType {
  kMsgMisDominator = 1,
  kMsgGray = 2,
  kMsgOneHopDoms = 3,
  kMsgTwoHopDoms = 4,
  kMsgSelection = 5,  // stable wire id  wcds-lint: allow(paper-constant)
  kMsgAdditionalDominator = 6,
  kMsgAdditionalForward = 7,
};

[[nodiscard]] const char* algorithm2_message_name(sim::MessageType type);

class Algorithm2Node final : public sim::ProtocolNode {
 public:
  void on_start(sim::Context& ctx) override;
  void on_receive(sim::Context& ctx, const sim::Message& msg) override;

  // Final-state accessors (valid after the runtime is quiescent).
  [[nodiscard]] bool is_mis_dominator() const { return mis_dominator_; }
  [[nodiscard]] bool is_additional_dominator() const { return additional_; }
  [[nodiscard]] bool is_gray() const {
    return color_ == Color::kGray && !additional_;
  }
  // The 1HopDomList, ascending (built from the dominator index).
  [[nodiscard]] std::vector<NodeId> one_hop_doms() const;
  [[nodiscard]] const std::vector<core::TwoHopEntry>& two_hop_doms() const {
    return two_hop_doms_;
  }
  [[nodiscard]] const std::vector<core::ThreeHopEntry>& three_hop_doms() const {
    return three_hop_doms_;
  }

 private:
  enum class Color : std::uint8_t { kWhite, kGray, kBlack };

  // Per-neighbor flags, indexed by the sender's slot in this node's sorted
  // neighbor row.
  enum SlotFlag : std::uint8_t {
    kColorKnown = 1,   // GRAY or MIS-DOMINATOR heard
    kGrayHeard = 2,    // GRAY heard
    kOneHopHeard = 4,  // 1-HOP-DOMINATORS heard
  };
  // Which dominator lists hold an entry for a dominator (dom_index_).
  enum ListFlag : std::uint8_t {
    kInTwoHop = 1,
    kInThreeHop = 2,
    kInOneHop = 4,  // the 1HopDomList is the index's entries with this flag
  };
  struct DomIndexEntry {
    NodeId dom;
    std::uint8_t lists;
  };

  void maybe_become_dominator(sim::Context& ctx);
  void maybe_send_one_hop(sim::Context& ctx);
  void maybe_send_two_hop(sim::Context& ctx);
  // Set `flag` for the sender's slot and update the counters it feeds;
  // a no-op when it is already set (a replayed message).
  void mark_slot(const sim::Context& ctx, NodeId from, SlotFlag flag);
  void note_color_heard(sim::Context& ctx, NodeId from);
  // The dom_index_ entry for `dom`, inserted with no lists if absent.
  DomIndexEntry& index_entry(NodeId dom);
  void add_three_hop(const core::ThreeHopEntry& entry);

  Color color_ = Color::kWhite;
  bool mis_dominator_ = false;
  bool additional_ = false;
  bool sent_one_hop_ = false;
  bool sent_two_hop_ = false;

  std::vector<std::uint8_t> slot_flags_;  // SlotFlag bits per neighbor slot
  // Rules 3, 4 and 7 as counters over slot_flags_: neighbors with a lower
  // ID (a prefix of the sorted row), how many of them sent GRAY, neighbors
  // whose color is known, and gray neighbors whose 1-HOP has not arrived.
  std::uint32_t lower_neighbors_ = 0;
  std::uint32_t lower_grays_ = 0;
  std::uint32_t colors_known_ = 0;
  std::uint32_t grays_missing_one_hop_ = 0;

  // The dominator lists are sized once, at their first entry, from the
  // unit-disk bounds of Lemmas 1 and 2 (check/audit.h), so on a unit-disk
  // graph none of them reallocates as it grows; elsewhere they still grow
  // as needed.  Insertion order is wire order (2-HOP-DOMINATORS lists
  // entries as they were learned), so membership goes through dom_index_,
  // which is sorted by dom and also holds the 1HopDomList (kInOneHop).
  std::vector<core::TwoHopEntry> two_hop_doms_;
  std::vector<core::ThreeHopEntry> three_hop_doms_;
  std::vector<DomIndexEntry> dom_index_;

  // SELECTION payloads already confirmed; makes rule 9 duplicate-safe (a
  // replayed SELECTION must not re-broadcast the confirmation).  Sorted.
  std::vector<std::array<std::uint32_t, 4>> confirmed_selections_;
};

struct DistributedWcdsRun {
  core::WcdsResult wcds;
  sim::RunStats stats;
  // Every node's 3HopDomList as the run left it: each MIS-dominator's
  // forward entries (from its SELECTIONs) and reverse ones (from
  // ADDITIONAL-FORWARD), in the order it learned them; empty rows at the
  // other nodes.
  graph::FlatRows<core::ThreeHopEntry> three_hop;
};

// Build the WCDS by running the protocol to quiescence on g.  The protocol
// is event-driven: under an asynchronous delay model it yields the same MIS
// (the rule's fixpoint is timing-independent) and a possibly different —
// but still valid — additional-dominator set.
//
// g need not be connected: the protocol is fully localized, so a run over
// any deployment is the composition of independent per-component runs
// (protocols/run_components.h).  `threads` sizes the pool the components
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
// converge to an audited WCDS — and, because the MIS rule's fixpoint is
// timing-independent, to the exact MIS of the fault-free run.
[[nodiscard]] DistributedWcdsRun run_algorithm2(
    const graph::Graph& g, const sim::DelayModel& delays = sim::DelayModel::unit(),
    obs::Recorder* recorder = nullptr,
    const fault::Plan* faults = nullptr, std::size_t threads = 0);

}  // namespace wcds::protocols
