#include "protocols/algorithm2_protocol.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "check/audit.h"
#include "check/check.h"
#include "protocols/run_components.h"

namespace wcds::protocols {
namespace {

// Sorted-unique insertion; returns true if newly inserted.
template <typename T>
bool insert_unique(std::vector<T>& v, const T& value) {
  const auto it = std::lower_bound(v.begin(), v.end(), value);
  if (it != v.end() && *it == value) return false;
  v.insert(it, value);
  return true;
}

// One scratch buffer per thread for outgoing list payloads: the runtime
// copies a payload out before broadcast returns.
std::vector<std::uint32_t>& payload_scratch() {
  thread_local std::vector<std::uint32_t> payload;
  payload.clear();
  return payload;
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

std::vector<NodeId> Algorithm2Node::one_hop_doms() const {
  std::vector<NodeId> doms;
  for (const DomIndexEntry& e : dom_index_) {
    if ((e.lists & kInOneHop) != 0) doms.push_back(e.dom);
  }
  return doms;
}

Algorithm2Node::DomIndexEntry& Algorithm2Node::index_entry(NodeId dom) {
  if (dom_index_.capacity() == 0) {
    // Sized once, at the first entry, from the unit-disk bounds: a gray
    // node indexes its 1- and 2-hop dominators (Lemmas 1 and 2), an
    // MIS-dominator its 2- and 3-hop ones (Lemma 2: at most 47 within three
    // hops).  A node's first entry comes when its own color is settled.
    dom_index_.reserve(mis_dominator_ ? check::kLemma2ThreeHopBound
                                      : check::kLemma1MaxMisNeighbors +
                                            check::kLemma2TwoHopBound);
  }
  const auto it = std::lower_bound(
      dom_index_.begin(), dom_index_.end(), dom,
      [](const DomIndexEntry& e, NodeId key) { return e.dom < key; });
  if (it != dom_index_.end() && it->dom == dom) return *it;
  return *dom_index_.insert(it, DomIndexEntry{dom, 0});
}

void Algorithm2Node::add_three_hop(const core::ThreeHopEntry& entry) {
  if (three_hop_doms_.capacity() == 0) {
    three_hop_doms_.reserve(check::kLemma2ThreeHopBound);
  }
  three_hop_doms_.push_back(entry);
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
  // The index is sorted by dom, so the 1HopDomList goes out ascending.
  std::vector<std::uint32_t>& payload = payload_scratch();
  for (const DomIndexEntry& e : dom_index_) {
    if ((e.lists & kInOneHop) != 0) payload.push_back(e.dom);
  }
  ctx.broadcast(kMsgOneHopDoms, payload);
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
  std::vector<std::uint32_t>& payload = payload_scratch();
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
      index_entry(msg.src).lists |= kInOneHop;
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
        DomIndexEntry& entry = index_entry(dom);
        if ((entry.lists & kInOneHop) != 0) continue;
        // Rules 5/6: record the 2-hop dominator with the reporting neighbor
        // as the intermediate; one entry per dominator (first heard wins).
        if ((entry.lists & kInTwoHop) == 0) {
          entry.lists |= kInTwoHop;
          if (two_hop_doms_.capacity() == 0) {
            two_hop_doms_.reserve(check::kLemma2TwoHopBound);
          }
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
        DomIndexEntry& entry = index_entry(w);
        if (entry.lists != 0) continue;  // known at 1, 2 or 3 hops
        entry.lists = kInThreeHop;
        add_three_hop({w, msg.src, x});
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
        add_three_hop({u, x, v});
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
                                  std::size_t threads) {
  WCDS_REQUIRE(g.node_count() > 0, "run_algorithm2: empty graph");
  obs::Recorder* rec = obs::recorder_or_global(recorder);
  obs::PhaseTimer total_timer(rec, "alg2/total");
  const std::size_t n = g.node_count();
  // Shards record each node's final role and 3HopDomList length in its own
  // slot; each shard also hands back its members' 3HopDomLists,
  // concatenated in member order.
  enum : std::uint8_t { kRoleNone = 0, kRoleMis = 1, kRoleAdditional = 2 };
  std::vector<std::uint8_t> role(n, kRoleNone);
  std::vector<std::uint32_t> three_hop_counts(n, 0);
  auto components = run_components(
      g, [](NodeId) { return std::make_unique<Algorithm2Node>(); }, delays,
      rec, faults, threads, "alg2/protocol_run", [&](const Shard& shard) {
        std::size_t entries = 0;
        for (const NodeId u : shard.members) {
          const auto& node = shard.node<Algorithm2Node>(u);
          if (node.is_mis_dominator()) {
            role[u] = kRoleMis;
          } else if (node.is_additional_dominator()) {
            role[u] = kRoleAdditional;
          }
          three_hop_counts[u] =
              static_cast<std::uint32_t>(node.three_hop_doms().size());
          entries += three_hop_counts[u];
        }
        std::vector<core::ThreeHopEntry> three_hop;
        three_hop.reserve(entries);
        for (const NodeId u : shard.members) {
          const auto& lists = shard.node<Algorithm2Node>(u).three_hop_doms();
          three_hop.insert(three_hop.end(), lists.begin(), lists.end());
        }
        return three_hop;
      });

  DistributedWcdsRun run;
  run.stats = std::move(components.stats);
  obs::PhaseTimer extract_timer(rec, "alg2/extract");
  run.three_hop = graph::FlatRows<core::ThreeHopEntry>::sized(three_hop_counts);
  for (std::size_t c = 0; c < components.shards.size(); ++c) {
    auto next = components.shards[c].cbegin();
    for (const NodeId u : components.plan.shard(c)) {
      const auto row = run.three_hop.mutable_row(u);
      std::copy(next, next + row.size(), row.begin());
      next += static_cast<std::ptrdiff_t>(row.size());
    }
  }
  std::vector<NodeId> mis;
  std::vector<NodeId> additional;
  for (NodeId u = 0; u < n; ++u) {
    if (role[u] == kRoleMis) mis.push_back(u);
    if (role[u] == kRoleAdditional) additional.push_back(u);
  }
  run.wcds = core::WcdsResult::from_members(n, std::move(mis),
                                            std::move(additional));
  const core::WcdsResult& r = run.wcds;
  extract_timer.stop();

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
  // same invariants as the centralized algorithm2, Theorem 11 included.
  if (check::audits_enabled()) {
    check::AuditOptions audit;
    audit.check_dilation = true;
    check::audit_invariants(g, r, audit);
  }
  return run;
}

}  // namespace wcds::protocols
