#include "protocols/routing_protocol.h"

#include <algorithm>
#include <memory>

#include "check/check.h"

namespace wcds::protocols {

const char* routing_message_name(sim::MessageType type) {
  switch (type) {
    case kMsgData: return "DATA";
    default: return "?";
  }
}

namespace {

// Shared instrumentation: the per-flow trail and delivery flags the harness
// reads back after the run (observation only, not protocol state).
struct Recorder {
  std::vector<FlowOutcome> flows;
};

// Generous hop budget: Theorem 11 bounds spanner paths by 3*delta + 2 and
// the clusterhead scheme adds at most two detour hops per end; 4n covers
// any network this library targets while still trapping forwarding loops.
std::uint32_t hop_budget(std::size_t node_count) {
  return static_cast<std::uint32_t>(4 * node_count + 16);
}

class RoutingNode final : public sim::ProtocolNode {
 public:
  RoutingNode(NodeId self, const routing::ClusterheadRouter* router,
              const std::vector<FlowRequest>* requests, Recorder* recorder)
      : self_(self),
        router_(router),
        requests_(requests),
        recorder_(recorder) {}

  void on_start(sim::Context& ctx) override {
    for (std::uint32_t flow = 0; flow < requests_->size(); ++flow) {
      const FlowRequest& request = (*requests_)[flow];
      if (request.src != self_) continue;
      recorder_->flows[flow].path.push_back(self_);
      if (request.dst == self_) {
        recorder_->flows[flow].delivered = true;
        continue;
      }
      forward(ctx, flow, request.dst,
              hop_budget(ctx.node_count()), /*route=*/{});
    }
  }

  void on_receive(sim::Context& ctx, const sim::Message& msg) override {
    WCDS_REQUIRE_STATE(msg.type == kMsgData,
                       "RoutingNode: unexpected message type " << msg.type);
    const std::uint32_t flow = msg.payload[0];
    const NodeId dst = msg.payload[1];
    const std::uint32_t budget = msg.payload[2];
    std::vector<NodeId> route(msg.payload.begin() + 3, msg.payload.end());

    FlowOutcome& outcome = recorder_->flows[flow];
    outcome.path.push_back(self_);
    ++outcome.hops;
    if (self_ == dst) {
      outcome.delivered = true;
      return;
    }
    if (budget == 0) return;  // loop trap: drop, stays undelivered
    forward(ctx, flow, dst, budget, std::move(route));
  }

 private:
  void forward(sim::Context& ctx, std::uint32_t flow, NodeId dst,
               std::uint32_t budget, std::vector<NodeId> route) {
    // A pre-computed leg is followed verbatim (the intermediates of a
    // 2HopDomList / 3HopDomList expansion).
    if (!route.empty()) {
      const NodeId next = route.front();
      route.erase(route.begin());
      send(ctx, next, flow, dst, budget, route);
      return;
    }
    // Decision point.  Direct delivery beats everything.
    const auto row = ctx.neighbors();
    if (std::binary_search(row.begin(), row.end(), dst)) {
      send(ctx, dst, flow, dst, budget, {});
      return;
    }
    if (!router_->is_clusterhead(self_)) {
      // Gray node: hand the packet to the clusterhead.
      send(ctx, router_->clusterhead(self_), flow, dst, budget, {});
      return;
    }
    // Clusterhead: table lookup toward the destination's clusterhead.
    const NodeId dst_head = router_->clusterhead(dst);
    // Destination is a member: it is adjacent, handled above.  Reaching
    // here means the clusterhead mapping is inconsistent.
    WCDS_REQUIRE_STATE(dst_head != self_,
                       "RoutingNode: member " << dst
                                              << " not adjacent to its head");
    const NodeId next_head = router_->next_clusterhead(self_, dst_head);
    if (next_head == kInvalidNode) return;  // unreachable: drop
    auto leg = router_->overlay_leg(self_, next_head);
    const NodeId first = leg.front();
    leg.erase(leg.begin());
    send(ctx, first, flow, dst, budget, leg);
  }

  void send(sim::Context& ctx, NodeId next, std::uint32_t flow, NodeId dst,
            std::uint32_t budget, const std::vector<NodeId>& route) {
    std::vector<std::uint32_t> payload{flow, dst, budget - 1};
    payload.insert(payload.end(), route.begin(), route.end());
    ctx.unicast(next, kMsgData, payload);
  }

  NodeId self_;
  const routing::ClusterheadRouter* router_;
  const std::vector<FlowRequest>* requests_;
  Recorder* recorder_;
};

}  // namespace

DataPlaneRun route_flows(const graph::Graph& g, core::Algorithm2View wcds,
                         const std::vector<FlowRequest>& requests,
                         const sim::DelayModel& delays) {
  for (const FlowRequest& r : requests) {
    WCDS_REQUIRE_BOUNDS(r.src < g.node_count() && r.dst < g.node_count(),
                        "route_flows: src/dst out of range");
  }
  const routing::ClusterheadRouter router(g, wcds);
  Recorder recorder;
  recorder.flows.resize(requests.size());

  sim::Runtime runtime(
      g,
      [&](NodeId u) {
        return std::make_unique<RoutingNode>(u, &router, &requests, &recorder);
      },
      delays);
  DataPlaneRun run;
  run.stats = runtime.run();
  run.flows = std::move(recorder.flows);
  return run;
}

}  // namespace wcds::protocols
