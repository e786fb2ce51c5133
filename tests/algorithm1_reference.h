// Test-only oracle for Algorithm I's phase A: the extinction-with-echo node
// that answered every CANDIDATE broadcast with a RESP unicast (joined or
// not), kept as it was before the echo moved onto the CANDIDATE broadcasts
// themselves.  Phases B and C are unchanged copies of the production
// handlers.  algorithm1_differential_test runs it beside
// protocols::Algorithm1Node: under unit delays both must elect the same
// leaders, build the same tree and levels and mark the same dominators.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/types.h"
#include "sim/message.h"
#include "sim/runtime.h"

namespace wcds::testing::reference {

// The retired RESP wire id ([cid, joined], unicast).  The production
// protocol keeps id 21 reserved; only this oracle sends it.
inline constexpr sim::MessageType kMsgResp = 21;

class RespAlgorithm1Node final : public sim::ProtocolNode {
 public:
  void on_start(sim::Context& ctx) override;
  void on_receive(sim::Context& ctx, const sim::Message& msg) override;

  [[nodiscard]] bool is_dominator() const { return color_ == Color::kBlack; }
  [[nodiscard]] bool is_leader() const { return leader_; }
  [[nodiscard]] std::uint32_t level() const { return level_; }
  [[nodiscard]] NodeId parent() const { return parent_; }

 private:
  enum class Color : std::uint8_t { kWhite, kGray, kBlack };

  void adopt(sim::Context& ctx, std::uint32_t cid, NodeId new_parent);
  void maybe_complete_wave(sim::Context& ctx);
  void become_leader(sim::Context& ctx);
  void announce_level(sim::Context& ctx, std::uint32_t level);
  void maybe_complete_levels(sim::Context& ctx);
  void start_marking(sim::Context& ctx);
  void turn_gray(sim::Context& ctx);
  void maybe_turn_black(sim::Context& ctx);

  static constexpr std::uint32_t kNoLevel = 0xFFFFFFFFu;
  static constexpr std::uint32_t kNoCid = 0xFFFFFFFFu;

  struct NeighborState {
    std::uint32_t resp_cid = kNoCid;
    std::uint32_t complete_cid = kNoCid;
    std::uint32_t level = kNoLevel;
    bool complete_b = false;
    bool gray = false;
  };
  [[nodiscard]] bool ranks_below(const sim::Context& ctx,
                                 std::size_t slot) const;

  std::vector<NeighborState> neighbors_;

  std::uint32_t best_cid_ = 0;
  NodeId parent_ = kInvalidNode;
  std::size_t resp_received_ = 0;
  std::size_t children_ = 0;
  std::size_t children_complete_ = 0;
  bool sent_complete_a_ = false;
  bool leader_ = false;

  std::uint32_t level_ = kNoLevel;
  std::size_t levels_known_ = 0;
  std::size_t level_children_complete_ = 0;
  bool sent_complete_b_ = false;

  Color color_ = Color::kWhite;
  bool ranked_ = false;
  std::size_t lower_not_gray_ = 0;
};

}  // namespace wcds::testing::reference
