#include "protocols/algorithm2_protocol.h"

#include <algorithm>
#include <memory>
#include <span>

#include "check/audit.h"
#include "check/check.h"
#include "fault/hardened.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "sim/shard_plan.h"
#include "sim/sharded.h"

namespace wcds::protocols {
namespace {

// Final-state accessor that sees through the hardened-transport wrapper.
const Algorithm2Node& as_algorithm2(const sim::Runtime& runtime, NodeId u,
                                    bool hardened) {
  const sim::ProtocolNode& node = runtime.node(u);
  if (!hardened) return static_cast<const Algorithm2Node&>(node);
  return static_cast<const Algorithm2Node&>(
      static_cast<const fault::HardenedNode&>(node).inner());
}

// Sorted-unique insertion; returns true if newly inserted.
template <typename T>
bool insert_unique(std::vector<T>& v, const T& value) {
  const auto it = std::lower_bound(v.begin(), v.end(), value);
  if (it != v.end() && *it == value) return false;
  v.insert(it, value);
  return true;
}

template <typename T>
bool contains_sorted(const std::vector<T>& v, const T& value) {
  return std::binary_search(v.begin(), v.end(), value);
}

}  // namespace

const char* algorithm2_message_name(sim::MessageType type) {
  switch (type) {
    case kMsgMisDominator: return "MIS-DOMINATOR";
    case kMsgGray: return "GRAY";
    case kMsgOneHopDoms: return "1-HOP-DOMINATORS";
    case kMsgTwoHopDoms: return "2-HOP-DOMINATORS";
    case kMsgSelection: return "SELECTION";
    case kMsgAdditionalDominator: return "ADDITIONAL-DOMINATOR";
    case kMsgAdditionalForward: return "ADDITIONAL-FORWARD";
  }
  return "?";
}

void Algorithm2Node::on_start(sim::Context& ctx) {
  const auto row = ctx.neighbors();
  slot_flags_.assign(row.size(), 0);
  lower_neighbors_ = static_cast<std::uint32_t>(
      std::lower_bound(row.begin(), row.end(), ctx.self()) - row.begin());
  maybe_become_dominator(ctx);
}

void Algorithm2Node::mark_slot(const sim::Context& ctx, NodeId from,
                               SlotFlag flag) {
  const std::size_t slot = ctx.neighbor_slot(from);
  std::uint8_t& flags = slot_flags_[slot];
  if ((flags & flag) != 0) return;  // a replayed message
  flags |= flag;
  switch (flag) {
    case kColorKnown:
      ++colors_known_;
      break;
    case kGrayHeard:
      if (slot < lower_neighbors_) ++lower_grays_;
      if ((flags & kOneHopHeard) == 0) ++grays_missing_one_hop_;
      break;
    case kOneHopHeard:
      if ((flags & kGrayHeard) != 0) --grays_missing_one_hop_;
      break;
  }
}

Algorithm2Node::DomIndexEntry& Algorithm2Node::index_entry(NodeId dom) {
  const auto it = std::lower_bound(
      dom_index_.begin(), dom_index_.end(), dom,
      [](const DomIndexEntry& e, NodeId key) { return e.dom < key; });
  if (it != dom_index_.end() && it->dom == dom) return *it;
  return *dom_index_.insert(it, DomIndexEntry{dom, 0});
}

void Algorithm2Node::maybe_become_dominator(sim::Context& ctx) {
  if (color_ != Color::kWhite) return;
  // Rule 1 + rule 3 combined: a white node turns MIS-dominator once every
  // lower-ID neighbor is known gray (at start this is vacuous for a local
  // ID minimum).
  if (lower_grays_ != lower_neighbors_) return;
  color_ = Color::kBlack;
  mis_dominator_ = true;
  ctx.broadcast(kMsgMisDominator);
}

void Algorithm2Node::note_color_heard(sim::Context& ctx, NodeId from) {
  mark_slot(ctx, from, kColorKnown);
  // Rule 4: a gray node that has heard GRAY or MIS-DOMINATOR from all its
  // neighbors announces its 1HopDomList.
  maybe_send_one_hop(ctx);
}

void Algorithm2Node::maybe_send_one_hop(sim::Context& ctx) {
  if (color_ != Color::kGray || sent_one_hop_) return;
  if (colors_known_ != slot_flags_.size()) return;
  sent_one_hop_ = true;
  ctx.broadcast(kMsgOneHopDoms, one_hop_doms_);
  // All gray neighbors may already have reported (possible when this node
  // grayed late); re-check the 2-hop trigger.
  maybe_send_two_hop(ctx);
}

void Algorithm2Node::maybe_send_two_hop(sim::Context& ctx) {
  if (color_ != Color::kGray || !sent_one_hop_ || sent_two_hop_) return;
  if (colors_known_ != slot_flags_.size()) return;
  // Rule 7: heard 1-HOP-DOMINATORS from each gray neighbor.
  if (grays_missing_one_hop_ != 0) return;
  sent_two_hop_ = true;
  // One scratch buffer per thread: the runtime copies the payload out
  // before broadcast returns.
  thread_local std::vector<std::uint32_t> payload;
  payload.clear();
  for (const core::TwoHopEntry& e : two_hop_doms_) {
    payload.push_back(e.dom);
    payload.push_back(e.via);
  }
  ctx.broadcast(kMsgTwoHopDoms, payload);
}

void Algorithm2Node::on_receive(sim::Context& ctx, const sim::Message& msg) {
  switch (msg.type) {
    case kMsgMisDominator: {
      // Rule 2: first dominator heard grays a white node; every dominator
      // heard lands in the 1HopDomList.
      insert_unique(one_hop_doms_, msg.src);
      if (color_ == Color::kWhite) {
        color_ = Color::kGray;
        ctx.broadcast(kMsgGray);
      }
      note_color_heard(ctx, msg.src);
      break;
    }
    case kMsgGray: {
      mark_slot(ctx, msg.src, kGrayHeard);
      // Rule 3: a white node black-promotes once all lower-ID neighbors
      // reported gray.
      maybe_become_dominator(ctx);
      note_color_heard(ctx, msg.src);
      break;
    }
    case kMsgOneHopDoms: {
      mark_slot(ctx, msg.src, kOneHopHeard);
      for (std::uint32_t dom : msg.payload) {
        if (dom == ctx.self()) continue;
        if (contains_sorted(one_hop_doms_, NodeId{dom})) continue;
        DomIndexEntry& entry = index_entry(dom);
        // Rules 5/6: record the 2-hop dominator with the reporting neighbor
        // as the intermediate; one entry per dominator (first heard wins).
        if ((entry.lists & kInTwoHop) == 0) {
          entry.lists |= kInTwoHop;
          two_hop_doms_.push_back({dom, msg.src});
        }
        // Rule 6 tail: a dominator found at 2 hops cancels any tentative
        // 3-hop entry (only MIS-dominators hold those).
        if (mis_dominator_ && (entry.lists & kInThreeHop) != 0) {
          entry.lists &= static_cast<std::uint8_t>(~kInThreeHop);
          std::erase_if(three_hop_doms_, [&](const core::ThreeHopEntry& e) {
            return e.dom == dom;
          });
        }
      }
      maybe_send_two_hop(ctx);
      break;
    }
    case kMsgTwoHopDoms: {
      // Rule 8: only MIS-dominators react.
      if (!mis_dominator_) break;
      for (std::size_t i = 0; i + 1 < msg.payload.size(); i += 2) {
        const NodeId w = msg.payload[i];
        const NodeId x = msg.payload[i + 1];
        if (w == ctx.self() || ctx.self() >= w) continue;
        if (contains_sorted(one_hop_doms_, w)) continue;
        DomIndexEntry& entry = index_entry(w);
        if (entry.lists != 0) continue;  // known at 2 or 3 hops
        entry.lists = kInThreeHop;
        three_hop_doms_.push_back({w, msg.src, x});
        ctx.unicast(msg.src, kMsgSelection, {ctx.self(), msg.src, x, w});
      }
      break;
    }
    case kMsgSelection: {
      // Rule 9: v turns additional-dominator and confirms — once per
      // selection tuple; a replayed SELECTION is acknowledged by the
      // transport but must not re-broadcast the confirmation.
      const std::array<std::uint32_t, 4> key{msg.payload[0], msg.payload[1],
                                             msg.payload[2], msg.payload[3]};
      if (!insert_unique(confirmed_selections_, key)) break;
      const NodeId u = msg.payload[0];
      const NodeId x = msg.payload[2];
      const NodeId w = msg.payload[3];
      additional_ = true;
      ctx.broadcast(kMsgAdditionalDominator, {ctx.self(), u, x, w});
      break;
    }
    case kMsgAdditionalDominator: {
      // The named intermediate x relays the confirmation to w (one hop
      // further than v's radio reaches).
      const NodeId v = msg.payload[0];
      const NodeId u = msg.payload[1];
      const NodeId x = msg.payload[2];
      const NodeId w = msg.payload[3];
      if (x == ctx.self()) {
        ctx.unicast(w, kMsgAdditionalForward, {v, u, x, w});
      }
      break;
    }
    case kMsgAdditionalForward: {
      // Rule 10: w records the reverse 3-hop entry (u via x then v).
      const NodeId v = msg.payload[0];
      const NodeId u = msg.payload[1];
      const NodeId x = msg.payload[2];
      DomIndexEntry& entry = index_entry(u);
      if ((entry.lists & kInThreeHop) == 0) {
        entry.lists |= kInThreeHop;
        three_hop_doms_.push_back({u, x, v});
      }
      break;
    }
    default:
      WCDS_REQUIRE_STATE(false, "Algorithm2Node: unknown message type "
                                    << msg.type);
  }
}

DistributedWcdsRun run_algorithm2(const graph::Graph& g,
                                  const sim::DelayModel& delays,
                                  obs::Recorder* recorder,
                                  const fault::Plan* faults,
                                  sim::ExecutionPolicy execution,
                                  std::size_t threads) {
  WCDS_REQUIRE(g.node_count() > 0, "run_algorithm2: empty graph");
  obs::Recorder* rec = obs::recorder_or_global(recorder);
  obs::PhaseTimer total_timer(rec, "alg2/total");
  const bool hardened = faults != nullptr;
  const sim::Runtime::NodeFactory factory =
      hardened ? sim::Runtime::NodeFactory([](NodeId) {
        return std::make_unique<fault::HardenedNode>(
            std::make_unique<Algorithm2Node>());
      })
               : sim::Runtime::NodeFactory([](NodeId) {
                   return std::make_unique<Algorithm2Node>();
                 });

  const std::size_t n = g.node_count();
  const sim::ShardPlan plan = sim::ShardPlan::build(g);
  const std::size_t shard_count = plan.shard_count();
  DistributedWcdsRun run;
  core::WcdsResult& r = run.wcds;
  r.mask.assign(n, false);
  r.color.assign(n, core::NodeColor::kGray);

  if (shard_count == 1) {
    // Connected graph: the historical single-runtime path, byte-for-byte —
    // ambient recorder on the runtime, unmixed seeds, zero shard overhead.
    std::unique_ptr<fault::Injector> injector;
    if (hardened) {
      injector = std::make_unique<fault::Injector>(*faults, n);
    }
    sim::Runtime runtime(g, factory, delays, rec, injector.get());
    {
      obs::PhaseTimer run_timer(rec, "alg2/protocol_run");
      run.stats = runtime.run();
    }
    WCDS_REQUIRE_STATE(run.stats.quiescent,
                       "run_algorithm2: event budget exceeded");
    if (hardened) {
      injector->record_metrics(rec);
      fault::record_transport_metrics(runtime, rec);
    }
    if (rec != nullptr) rec->metrics().set("sim/shards", 1.0);
    obs::PhaseTimer extract_timer(rec, "alg2/extract");
    for (NodeId u = 0; u < n; ++u) {
      const auto& node = as_algorithm2(runtime, u, hardened);
      if (node.is_mis_dominator()) {
        r.mis_dominators.push_back(u);
        r.mask[u] = true;
      } else if (node.is_additional_dominator()) {
        r.additional_dominators.push_back(u);
        r.mask[u] = true;
      }
      if (r.mask[u]) {
        r.dominators.push_back(u);
        r.color[u] = core::NodeColor::kBlack;
      }
    }
    extract_timer.stop();
  } else {
    // Disconnected deployment: one independent sub-run per component, under
    // `execution` (sim/sharded.h).  Shards record each node's final role in
    // disjoint slots; the ascending rebuild below restores the sorted
    // dominator lists the single-runtime scan would have produced.
    enum : std::uint8_t { kRoleNone = 0, kRoleMis = 1, kRoleAdditional = 2 };
    std::vector<std::uint8_t> role(n, kRoleNone);
    std::vector<sim::ShardOutcome> outcomes(shard_count);
    std::vector<fault::Injector::Counters> fault_counters(
        hardened ? shard_count : 0);
    std::vector<fault::TransportStats> transports(hardened ? shard_count : 0);
    {
      obs::PhaseTimer run_timer(rec, "alg2/protocol_run");
      sim::for_each_shard(execution, shard_count, threads, [&](std::size_t c) {
        const std::span<const NodeId> members = plan.shard(c);
        std::unique_ptr<fault::Injector> injector;
        if (hardened) {
          injector = std::make_unique<fault::Injector>(
              faults->for_shard(static_cast<std::uint32_t>(c)), n);
        }
        sim::DelayModel shard_delays = delays;
        shard_delays.seed =
            sim::shard_stream_seed(delays.seed, static_cast<std::uint32_t>(c));
        outcomes[c] = sim::run_shard(
            g, members, factory, shard_delays, injector.get(),
            /*record=*/rec != nullptr,
            /*capture_trace=*/rec != nullptr && rec->trace_sink() != nullptr,
            sim::kDefaultMaxEvents, [&](sim::Runtime& runtime) {
              for (NodeId u : members) {
                const auto& node = as_algorithm2(runtime, u, hardened);
                if (node.is_mis_dominator()) {
                  role[u] = kRoleMis;
                } else if (node.is_additional_dominator()) {
                  role[u] = kRoleAdditional;
                }
              }
              if (hardened) {
                fault_counters[c] = injector->counters();
                transports[c] = fault::collect_transport_stats(runtime);
              }
            });
      });
    }
    run.stats = sim::merge_shards(outcomes, rec);
    WCDS_REQUIRE_STATE(run.stats.quiescent,
                       "run_algorithm2: event budget exceeded");
    if (hardened) {
      fault::Injector::Counters counter_total;
      fault::TransportStats transport_total;
      for (std::size_t c = 0; c < shard_count; ++c) {
        counter_total.suppressed_sends += fault_counters[c].suppressed_sends;
        counter_total.dropped += fault_counters[c].dropped;
        counter_total.duplicated += fault_counters[c].duplicated;
        counter_total.blocked_receives += fault_counters[c].blocked_receives;
        transport_total.frames_sent += transports[c].frames_sent;
        transport_total.retransmits += transports[c].retransmits;
        transport_total.acks_sent += transports[c].acks_sent;
        transport_total.duplicates_ignored += transports[c].duplicates_ignored;
      }
      fault::Injector::record_counters(rec, counter_total);
      fault::record_transport_metrics(transport_total, rec);
    }
    obs::PhaseTimer extract_timer(rec, "alg2/extract");
    for (NodeId u = 0; u < n; ++u) {
      if (role[u] == kRoleMis) {
        r.mis_dominators.push_back(u);
        r.mask[u] = true;
      } else if (role[u] == kRoleAdditional) {
        r.additional_dominators.push_back(u);
        r.mask[u] = true;
      }
      if (r.mask[u]) {
        r.dominators.push_back(u);
        r.color[u] = core::NodeColor::kBlack;
      }
    }
    extract_timer.stop();
  }

  if (rec != nullptr) {
    auto& metrics = rec->metrics();
    metrics.add("alg2/runs");
    metrics.observe("alg2/transmissions",
                    static_cast<double>(run.stats.transmissions));
    metrics.observe("alg2/completion_time",
                    static_cast<double>(run.stats.completion_time));
    metrics.observe("alg2/wcds_size", static_cast<double>(r.size()));
    metrics.observe("alg2/mis_size",
                    static_cast<double>(r.mis_dominators.size()));
    metrics.observe("alg2/additional_size",
                    static_cast<double>(r.additional_dominators.size()));
  }

  // Debug/test tripwire: the message-passing construction must satisfy the
  // same Section 1-3 invariants as the centralized algorithm2.
  if (check::audits_enabled()) check::audit_invariants(g, r);
  return run;
}

}  // namespace wcds::protocols
