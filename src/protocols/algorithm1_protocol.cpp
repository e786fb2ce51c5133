#include "protocols/algorithm1_protocol.h"

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "check/audit.h"
#include "check/check.h"
#include "protocols/run_components.h"

namespace wcds::protocols {

const char* algorithm1_message_name(sim::MessageType type) {
  switch (type) {
    case kMsgCandidate: return "CANDIDATE";
    case kMsgCompleteA: return "COMPLETE-A";
    case kMsgLevel: return "LEVEL";
    case kMsgCompleteB: return "COMPLETE-B";
    case kMsgBlack: return "BLACK";
    case kMsgGrayI: return "GRAY";
  }
  return "?";
}

void Algorithm1Node::on_start(sim::Context& ctx) {
  neighbors_.assign(ctx.neighbors().size(), NeighborState{});
  best_cid_ = ctx.self();
  parent_ = kInvalidNode;
  if (ctx.neighbors().empty()) {
    // Single-node network: trivially the leader; marking is immediate.
    become_leader(ctx);
    return;
  }
  ctx.broadcast(kMsgCandidate, {best_cid_, kInvalidNode});
}

void Algorithm1Node::adopt(sim::Context& ctx, std::uint32_t cid,
                           NodeId new_parent) {
  best_cid_ = cid;
  parent_ = new_parent;
  echoes_ = 0;
  children_ = 0;
  children_complete_ = 0;
  sent_complete_a_ = false;
  ctx.broadcast(kMsgCandidate, {cid, new_parent});
}

void Algorithm1Node::maybe_complete_wave(sim::Context& ctx) {
  if (sent_complete_a_) return;
  if (echoes_ != ctx.neighbors().size()) return;
  if (children_complete_ != children_) return;
  sent_complete_a_ = true;
  if (parent_ != kInvalidNode) {
    ctx.unicast(parent_, kMsgCompleteA, {best_cid_});
  } else if (best_cid_ == ctx.self()) {
    become_leader(ctx);
  }
}

void Algorithm1Node::become_leader(sim::Context& ctx) {
  leader_ = true;
  // Phase B: the root is at level 0 and announces it.
  announce_level(ctx, 0);
}

void Algorithm1Node::announce_level(sim::Context& ctx, std::uint32_t level) {
  level_ = level;
  if (ctx.neighbors().empty()) {
    start_marking(ctx);
    return;
  }
  ctx.broadcast(kMsgLevel, {level});
  maybe_complete_levels(ctx);
}

void Algorithm1Node::maybe_complete_levels(sim::Context& ctx) {
  if (level_ == kNoLevel || sent_complete_b_) return;
  // COMPLETE-B flows up once this node has leveled and every phase-A child
  // subtree reported.
  if (level_children_complete_ != children_) return;
  sent_complete_b_ = true;
  if (parent_ != kInvalidNode) {
    ctx.unicast(parent_, kMsgCompleteB);
  } else {
    start_marking(ctx);
  }
}

void Algorithm1Node::start_marking(sim::Context& ctx) {
  // The root may already have marked itself black: its marking predicate is
  // vacuous (no lower-rank neighbor exists), so maybe_turn_black can fire as
  // soon as all neighbor levels are known, before COMPLETE-B returns.  The
  // fixpoint of the marking rules is the same greedy MIS either way.
  if (color_ == Color::kBlack) return;
  color_ = Color::kBlack;
  if (!ctx.neighbors().empty()) ctx.broadcast(kMsgBlack);
}

void Algorithm1Node::turn_gray(sim::Context& ctx) {
  if (color_ != Color::kWhite) return;
  color_ = Color::kGray;
  ctx.broadcast(kMsgGrayI);
}

bool Algorithm1Node::ranks_below(const sim::Context& ctx,
                                 std::size_t slot) const {
  const std::pair<std::uint32_t, NodeId> mine{level_, ctx.self()};
  const std::pair<std::uint32_t, NodeId> theirs{neighbors_[slot].level,
                                                ctx.neighbors()[slot]};
  return theirs < mine;
}

void Algorithm1Node::maybe_turn_black(sim::Context& ctx) {
  if (color_ != Color::kWhite || level_ == kNoLevel) return;
  if (levels_known_ != neighbors_.size()) return;  // a level unknown: wait
  if (!ranked_) {
    // Levels never change once announced, so the lower-rank set is fixed
    // from here on; later GRAYs decrement the count.
    ranked_ = true;
    for (std::size_t slot = 0; slot < neighbors_.size(); ++slot) {
      if (ranks_below(ctx, slot) && !neighbors_[slot].gray) ++lower_not_gray_;
    }
  }
  if (lower_not_gray_ != 0) return;
  color_ = Color::kBlack;
  ctx.broadcast(kMsgBlack);
}

// Every counting handler is duplicate-safe: a replayed CANDIDATE,
// COMPLETE-A, LEVEL, COMPLETE-B or GRAY finds its neighbor slot already
// marked and counts nothing, so a duplicating radio cannot push a counter
// past the number of neighbors or children it waits for.
void Algorithm1Node::on_receive(sim::Context& ctx, const sim::Message& msg) {
  switch (msg.type) {
    case kMsgCandidate: {
      // The sender is in wave cid: that is the echo this node's wave waits
      // for, and a child's echo names this node as its parent.
      const std::uint32_t cid = msg.payload[0];
      if (cid > best_cid_) break;  // suppress: that wave is extinct here
      if (cid < best_cid_) adopt(ctx, cid, msg.src);
      NeighborState& from = neighbors_[ctx.neighbor_slot(msg.src)];
      if (from.echo_cid == cid) break;  // replay
      from.echo_cid = cid;
      ++echoes_;
      if (msg.payload[1] == ctx.self()) ++children_;
      maybe_complete_wave(ctx);
      break;
    }
    case kMsgCompleteA: {
      const std::uint32_t cid = msg.payload[0];
      if (cid != best_cid_) break;  // stale wave
      NeighborState& from = neighbors_[ctx.neighbor_slot(msg.src)];
      if (from.complete_cid == cid) break;  // replay
      from.complete_cid = cid;
      ++children_complete_;
      maybe_complete_wave(ctx);
      break;
    }
    case kMsgLevel: {
      const std::uint32_t announced = msg.payload[0];
      // Record-once: a node announces its level a single time, so
      // re-hearing it can only be a replay.
      const std::size_t slot = ctx.neighbor_slot(msg.src);
      if (neighbors_[slot].level == kNoLevel) {
        neighbors_[slot].level = announced;
        ++levels_known_;
      }
      if (msg.src == parent_ && level_ == kNoLevel) {
        announce_level(ctx, announced + 1);
      }
      // A newly learned level can unblock the marking predicate.
      maybe_turn_black(ctx);
      break;
    }
    case kMsgCompleteB: {
      NeighborState& from = neighbors_[ctx.neighbor_slot(msg.src)];
      if (from.complete_b) break;  // replay
      from.complete_b = true;
      ++level_children_complete_;
      maybe_complete_levels(ctx);
      break;
    }
    case kMsgBlack: {
      turn_gray(ctx);
      break;
    }
    case kMsgGrayI: {
      const std::size_t slot = ctx.neighbor_slot(msg.src);
      if (!neighbors_[slot].gray) {
        neighbors_[slot].gray = true;
        if (ranked_ && ranks_below(ctx, slot)) --lower_not_gray_;
      }
      maybe_turn_black(ctx);
      break;
    }
    default:
      WCDS_REQUIRE_STATE(false, "Algorithm1Node: unknown message type "
                                    << msg.type);
  }
}

DistributedAlgorithm1Run run_algorithm1(const graph::Graph& g,
                                        const sim::DelayModel& delays,
                                        obs::Recorder* recorder,
                                        const fault::Plan* faults,
                                        std::size_t threads) {
  WCDS_REQUIRE(g.node_count() > 0, "run_algorithm1: empty graph");
  obs::Recorder* rec = obs::recorder_or_global(recorder);
  obs::PhaseTimer total_timer(rec, "alg1/total");
  const std::size_t n = g.node_count();
  DistributedAlgorithm1Run run;
  run.levels.resize(n);
  // Shards flag dominators in a byte array, not a mask: vector<bool> packs
  // bits into shared words, so shards flagging adjacent node ids would race.
  std::vector<std::uint8_t> dominator(n, 0);
  auto components = run_components(
      g, [](NodeId) { return std::make_unique<Algorithm1Node>(); }, delays,
      rec, faults, threads, "alg1/protocol_run", [&](const Shard& shard) {
        NodeId leader = kInvalidNode;
        for (const NodeId u : shard.members) {
          const auto& node = shard.node<Algorithm1Node>(u);
          if (node.is_leader()) leader = u;
          run.levels[u] = node.level();
          if (node.is_dominator()) dominator[u] = 1;
        }
        return leader;
      });
  run.stats = std::move(components.stats);
  run.leaders = std::move(components.shards);

  obs::PhaseTimer extract_timer(rec, "alg1/extract");
  std::vector<NodeId> mis;
  for (NodeId u = 0; u < n; ++u) {
    if (dominator[u] != 0) mis.push_back(u);
  }
  run.wcds = core::WcdsResult::from_members(n, std::move(mis), {});
  const core::WcdsResult& r = run.wcds;
  run.leader = run.leaders[0];
  extract_timer.stop();
  // A quiescent run without a leader built no backbone for that component;
  // say so instead of returning an empty WCDS.
  for (std::size_t c = 0; c < run.leaders.size(); ++c) {
    WCDS_REQUIRE_STATE(run.leaders[c] != kInvalidNode,
                       "run_algorithm1: component "
                           << c << " quiesced without electing a leader");
  }

  if (rec != nullptr) {
    auto& metrics = rec->metrics();
    metrics.add("alg1/runs");
    metrics.observe("alg1/transmissions",
                    static_cast<double>(run.stats.transmissions));
    metrics.observe("alg1/completion_time",
                    static_cast<double>(run.stats.completion_time));
    metrics.observe("alg1/wcds_size", static_cast<double>(r.size()));
  }

  // Debug/test tripwire: the distributed run must land on the same
  // level-ranked-MIS invariants as the centralized construction (Theorem 4
  // included).
  if (check::audits_enabled()) {
    check::AuditOptions audit_options;
    audit_options.level_ranked = true;
    check::audit_invariants(g, r, audit_options);
  }
  return run;
}

}  // namespace wcds::protocols
