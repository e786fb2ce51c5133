// Distributed packet forwarding over the WCDS spanner (paper, Section 4.2).
//
// Control plane: an Algorithm II run provides every node's clusterhead and
// every clusterhead's routing state, its overlay row and overlay distances,
// from which it reads the next clusterhead (installed at construction —
// the paper says "the MIS-dominators (clusterheads) maintain the routing
// tables").  Data plane, message by message on the simulator:
//
//   * a source adjacent to the destination transmits directly (one hop);
//   * otherwise it hands the packet to its clusterhead (DATA unicast);
//   * a clusterhead looks up the next clusterhead toward the destination's
//     clusterhead and forwards along the stored 2-hop (head-via-head) or
//     3-hop (head-bridge-via-head) expansion — every hop a black edge;
//   * the destination's clusterhead delivers the final hop.
//
// Each DATA message carries (flow id, destination, hop budget); the hop
// budget guards against forwarding loops (a correctness bug would surface
// as an exhausted budget, not an infinite run).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "routing/clusterhead_routing.h"
#include "sim/message.h"
#include "sim/runtime.h"
#include "wcds/algorithm2.h"

namespace wcds::protocols {

enum RoutingMessageType : sim::MessageType {
  kMsgData = 40,  // payload: [flow, dst, remaining_budget]
};

// Trace name for a RoutingMessageType value ("?" when unknown).
[[nodiscard]] const char* routing_message_name(sim::MessageType type);

struct FlowRequest {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
};

struct FlowOutcome {
  bool delivered = false;
  std::size_t hops = 0;            // transmissions this packet used
  std::vector<NodeId> path;        // nodes visited, src first
};

struct DataPlaneRun {
  std::vector<FlowOutcome> flows;  // one per request, same order
  sim::RunStats stats;

  [[nodiscard]] std::size_t delivered_count() const {
    std::size_t count = 0;
    for (const auto& f : flows) count += f.delivered ? 1 : 0;
    return count;
  }
};

// Route all `requests` concurrently over the spanner of `wcds` (a view of
// an Algorithm II run on `g`).  Every packet is injected at time 0.
[[nodiscard]] DataPlaneRun route_flows(
    const graph::Graph& g, core::Algorithm2View wcds,
    const std::vector<FlowRequest>& requests,
    const sim::DelayModel& delays = sim::DelayModel::unit());

}  // namespace wcds::protocols
