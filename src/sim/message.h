// Messages exchanged by simulated protocol nodes.
//
// The cost model matches the paper's: one *transmission* is one message,
// whether unicast or local broadcast (a single radio transmission reaches
// every UDG neighbor).  Message complexity counts transmissions.
#pragma once

#include <cstdint>
#include <span>

#include "graph/types.h"

namespace wcds::sim {

// Destination sentinel for a local broadcast.
inline constexpr NodeId kBroadcastDst = kInvalidNode;

// Simulated time; every transmission takes one time unit to deliver.
using SimTime = std::uint64_t;

// Protocol-defined message type tag.  Each protocol owns its own enum and
// registers names for the stats breakdown.
using MessageType = std::uint16_t;

// A delivered message as its handler sees it.  `payload` views storage the
// sender owns (the runtime's pool slot, or the hardened transport's frame);
// it stays valid for the duration of the on_receive call only, so a handler
// that keeps words must copy them.
struct Message {
  NodeId src = kInvalidNode;
  NodeId dst = kBroadcastDst;  // kBroadcastDst or a UDG neighbor of src
  MessageType type = 0;
  std::span<const std::uint32_t> payload;
};

}  // namespace wcds::sim
