#include "algorithm1_reference.h"

#include <utility>

#include "check/check.h"
#include "protocols/algorithm1_protocol.h"

namespace wcds::testing::reference {

using protocols::kMsgBlack;
using protocols::kMsgCandidate;
using protocols::kMsgCompleteA;
using protocols::kMsgCompleteB;
using protocols::kMsgGrayI;
using protocols::kMsgLevel;

void RespAlgorithm1Node::on_start(sim::Context& ctx) {
  neighbors_.assign(ctx.neighbors().size(), NeighborState{});
  best_cid_ = ctx.self();
  parent_ = kInvalidNode;
  if (ctx.neighbors().empty()) {
    become_leader(ctx);
    return;
  }
  ctx.broadcast(kMsgCandidate, {best_cid_});
}

void RespAlgorithm1Node::adopt(sim::Context& ctx, std::uint32_t cid,
                               NodeId new_parent) {
  best_cid_ = cid;
  parent_ = new_parent;
  resp_received_ = 0;
  children_ = 0;
  children_complete_ = 0;
  sent_complete_a_ = false;
  ctx.broadcast(kMsgCandidate, {cid});
}

void RespAlgorithm1Node::maybe_complete_wave(sim::Context& ctx) {
  if (sent_complete_a_) return;
  if (resp_received_ != ctx.neighbors().size()) return;
  if (children_complete_ != children_) return;
  sent_complete_a_ = true;
  if (parent_ != kInvalidNode) {
    ctx.unicast(parent_, kMsgCompleteA, {best_cid_});
  } else if (best_cid_ == ctx.self()) {
    become_leader(ctx);
  }
}

void RespAlgorithm1Node::become_leader(sim::Context& ctx) {
  leader_ = true;
  announce_level(ctx, 0);
}

void RespAlgorithm1Node::announce_level(sim::Context& ctx,
                                        std::uint32_t level) {
  level_ = level;
  if (ctx.neighbors().empty()) {
    start_marking(ctx);
    return;
  }
  ctx.broadcast(kMsgLevel, {level});
  maybe_complete_levels(ctx);
}

void RespAlgorithm1Node::maybe_complete_levels(sim::Context& ctx) {
  if (level_ == kNoLevel || sent_complete_b_) return;
  if (level_children_complete_ != children_) return;
  sent_complete_b_ = true;
  if (parent_ != kInvalidNode) {
    ctx.unicast(parent_, kMsgCompleteB);
  } else {
    start_marking(ctx);
  }
}

void RespAlgorithm1Node::start_marking(sim::Context& ctx) {
  if (color_ == Color::kBlack) return;
  color_ = Color::kBlack;
  if (!ctx.neighbors().empty()) ctx.broadcast(kMsgBlack);
}

void RespAlgorithm1Node::turn_gray(sim::Context& ctx) {
  if (color_ != Color::kWhite) return;
  color_ = Color::kGray;
  ctx.broadcast(kMsgGrayI);
}

bool RespAlgorithm1Node::ranks_below(const sim::Context& ctx,
                                     std::size_t slot) const {
  const std::pair<std::uint32_t, NodeId> mine{level_, ctx.self()};
  const std::pair<std::uint32_t, NodeId> theirs{neighbors_[slot].level,
                                                ctx.neighbors()[slot]};
  return theirs < mine;
}

void RespAlgorithm1Node::maybe_turn_black(sim::Context& ctx) {
  if (color_ != Color::kWhite || level_ == kNoLevel) return;
  if (levels_known_ != neighbors_.size()) return;
  if (!ranked_) {
    ranked_ = true;
    for (std::size_t slot = 0; slot < neighbors_.size(); ++slot) {
      if (ranks_below(ctx, slot) && !neighbors_[slot].gray) ++lower_not_gray_;
    }
  }
  if (lower_not_gray_ != 0) return;
  color_ = Color::kBlack;
  ctx.broadcast(kMsgBlack);
}

void RespAlgorithm1Node::on_receive(sim::Context& ctx,
                                    const sim::Message& msg) {
  switch (msg.type) {
    case kMsgCandidate: {
      const std::uint32_t cid = msg.payload[0];
      if (cid < best_cid_) {
        adopt(ctx, cid, msg.src);
        ctx.unicast(msg.src, kMsgResp, {cid, 1});
      } else if (cid == best_cid_) {
        ctx.unicast(msg.src, kMsgResp, {cid, 0});
      }
      break;
    }
    case kMsgResp: {
      const std::uint32_t cid = msg.payload[0];
      if (cid != best_cid_) break;
      NeighborState& from = neighbors_[ctx.neighbor_slot(msg.src)];
      if (from.resp_cid == cid) break;
      from.resp_cid = cid;
      ++resp_received_;
      if (msg.payload[1] == 1) ++children_;
      maybe_complete_wave(ctx);
      break;
    }
    case kMsgCompleteA: {
      const std::uint32_t cid = msg.payload[0];
      if (cid != best_cid_) break;
      NeighborState& from = neighbors_[ctx.neighbor_slot(msg.src)];
      if (from.complete_cid == cid) break;
      from.complete_cid = cid;
      ++children_complete_;
      maybe_complete_wave(ctx);
      break;
    }
    case kMsgLevel: {
      const std::uint32_t announced = msg.payload[0];
      const std::size_t slot = ctx.neighbor_slot(msg.src);
      if (neighbors_[slot].level == kNoLevel) {
        neighbors_[slot].level = announced;
        ++levels_known_;
      }
      if (msg.src == parent_ && level_ == kNoLevel) {
        announce_level(ctx, announced + 1);
      }
      maybe_turn_black(ctx);
      break;
    }
    case kMsgCompleteB: {
      NeighborState& from = neighbors_[ctx.neighbor_slot(msg.src)];
      if (from.complete_b) break;
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
      WCDS_REQUIRE_STATE(false, "RespAlgorithm1Node: unknown message type "
                                    << msg.type);
  }
}

}  // namespace wcds::testing::reference
