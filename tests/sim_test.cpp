// Discrete-event runtime semantics: delivery order, cost accounting,
// quiescence, timers and resumed runs.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "sim/runtime.h"
#include "test_util.h"

namespace wcds::sim {
namespace {

// Flood protocol: node 0 broadcasts PING at start; everyone re-broadcasts the
// first PING they hear.  Tests broadcast fan-out, time = eccentricity.
class FloodNode final : public ProtocolNode {
 public:
  void on_start(Context& ctx) override {
    if (ctx.self() == 0) {
      seen_ = true;
      ctx.broadcast(1);
    }
  }
  void on_receive(Context& ctx, const Message& msg) override {
    last_from_ = msg.src;
    ++received_;
    if (!seen_) {
      seen_ = true;
      hop_ = static_cast<std::uint32_t>(ctx.now());
      ctx.broadcast(1);
    }
  }
  bool seen_ = false;
  std::uint32_t hop_ = 0;
  NodeId last_from_ = kInvalidNode;
  int received_ = 0;
};

TEST(Runtime, FloodReachesEveryoneInBfsTime) {
  const auto g = graph::from_edges(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  Runtime rt(g, [](NodeId) { return std::make_unique<FloodNode>(); });
  const auto stats = rt.run();
  EXPECT_TRUE(stats.quiescent);
  EXPECT_EQ(stats.transmissions, 6u);  // everyone broadcasts exactly once
  for (NodeId u = 0; u < 6; ++u) {
    const auto& node = static_cast<const FloodNode&>(rt.node(u));
    EXPECT_TRUE(node.seen_);
    if (u > 0) {
      EXPECT_EQ(node.hop_, u);  // path graph: hop = id
    }
  }
  EXPECT_EQ(stats.completion_time, 6u);  // node 5's re-broadcast dies at t=6
}

TEST(Runtime, BroadcastCountsOneTransmissionManyDeliveries) {
  const auto g = graph::from_edges(4, {{0, 1}, {0, 2}, {0, 3}});
  Runtime rt(g, [](NodeId) { return std::make_unique<FloodNode>(); });
  const auto stats = rt.run();
  // 0 broadcasts once (3 deliveries); leaves each broadcast once (1 delivery
  // to 0 each).
  EXPECT_EQ(stats.transmissions, 4u);
  EXPECT_EQ(stats.deliveries, 6u);
}

// Unicast protocol: node 0 pings its largest neighbor, which pongs back.
class PingPongNode final : public ProtocolNode {
 public:
  void on_start(Context& ctx) override {
    if (ctx.self() == 0 && !ctx.neighbors().empty()) {
      ctx.unicast(ctx.neighbors().back(), 1, {42});
    }
  }
  void on_receive(Context& ctx, const Message& msg) override {
    payload_seen_ = msg.payload.empty() ? 0 : msg.payload[0];
    if (msg.type == 1) ctx.unicast(msg.src, 2, {msg.payload[0] + 1});
  }
  std::uint32_t payload_seen_ = 0;
};

TEST(Runtime, UnicastRoundTripAndPayload) {
  const auto g = graph::from_edges(3, {{0, 1}, {0, 2}});
  Runtime rt(g, [](NodeId) { return std::make_unique<PingPongNode>(); });
  const auto stats = rt.run();
  EXPECT_EQ(stats.transmissions, 2u);
  EXPECT_EQ(stats.completion_time, 2u);
  EXPECT_EQ(static_cast<const PingPongNode&>(rt.node(2)).payload_seen_, 42u);
  EXPECT_EQ(static_cast<const PingPongNode&>(rt.node(0)).payload_seen_, 43u);
  EXPECT_EQ(stats.per_type.at(1), 1u);
  EXPECT_EQ(stats.per_type.at(2), 1u);
}

class MisbehavingNode final : public ProtocolNode {
 public:
  void on_start(Context& ctx) override {
    if (ctx.self() == 0) ctx.unicast(2, 1);  // 2 is NOT a neighbor of 0
  }
  void on_receive(Context&, const Message&) override {}
};

TEST(Runtime, UnicastToNonNeighborThrows) {
  const auto g = graph::from_edges(3, {{0, 1}, {1, 2}});
  Runtime rt(g, [](NodeId) { return std::make_unique<MisbehavingNode>(); });
  EXPECT_THROW(rt.run(), std::logic_error);
}

// Chatter protocol that never quiesces: every message triggers another.
class ChatterNode final : public ProtocolNode {
 public:
  void on_start(Context& ctx) override {
    if (ctx.self() == 0) ctx.broadcast(1);
  }
  void on_receive(Context& ctx, const Message&) override { ctx.broadcast(1); }
};

TEST(Runtime, EventBudgetStopsRunaway) {
  const auto g = graph::from_edges(2, {{0, 1}});
  Runtime rt(g, [](NodeId) { return std::make_unique<ChatterNode>(); });
  const auto stats = rt.run(/*max_events=*/1000);
  EXPECT_FALSE(stats.quiescent);
}

// A second run() resumes where the first stopped: on_start does not fire
// again, and the totals carry over.
TEST(Runtime, SecondRunResumesWithoutRestarting) {
  const auto g = graph::from_edges(2, {{0, 1}});
  Runtime rt(g, [](NodeId) { return std::make_unique<FloodNode>(); });
  const auto first = rt.run();
  const auto second = rt.run();
  EXPECT_EQ(first, second);
  EXPECT_EQ(second.transmissions, 2u);
  EXPECT_EQ(rt.now(), 2u);
}

// Budget-tripped runs continue from the queued events on the next call.
TEST(Runtime, BudgetTrippedRunContinues) {
  const auto g = graph::from_edges(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  Runtime rt(g, [](NodeId) { return std::make_unique<FloodNode>(); });
  EXPECT_FALSE(rt.run(/*max_events=*/3).quiescent);
  const auto stats = rt.run();
  EXPECT_TRUE(stats.quiescent);
  EXPECT_EQ(stats.transmissions, 6u);
  EXPECT_EQ(stats.completion_time, 6u);
}

// Logs every delivery and timer fire, in processing order, into a shared
// journal; node 0 schedules both kinds at start in the order `timer_first`
// says.
struct Journal {
  std::vector<std::pair<char, SimTime>> entries;  // ('d' | 't', time)
};

class TimerNode final : public ProtocolNode {
 public:
  TimerNode(Journal* journal, bool timer_first)
      : journal_(journal), timer_first_(timer_first) {}
  void on_start(Context& ctx) override {
    if (ctx.self() != 0) return;
    if (timer_first_) ctx.set_timer(1, 7);
    ctx.broadcast(1);
    if (!timer_first_) ctx.set_timer(1, 7);
  }
  void on_receive(Context& ctx, const Message&) override {
    journal_->entries.emplace_back('d', ctx.now());
  }
  void on_timer(Context& ctx, std::uint64_t token) override {
    EXPECT_EQ(token, 7u);
    journal_->entries.emplace_back('t', ctx.now());
  }

 private:
  Journal* journal_;
  bool timer_first_;
};

// A timer and a delivery due at the same time fire in sequence order under
// unit delays: whichever was scheduled first runs first.
TEST(Runtime, TimerAndDeliveryAtTheSameTimeFireInSeqOrder) {
  const auto g = graph::from_edges(2, {{0, 1}});
  for (const bool timer_first : {true, false}) {
    Journal journal;
    Runtime rt(g, [&](NodeId) {
      return std::make_unique<TimerNode>(&journal, timer_first);
    });
    const auto stats = rt.run();
    const std::vector<std::pair<char, SimTime>> expected =
        timer_first ? std::vector<std::pair<char, SimTime>>{{'t', 1}, {'d', 1}}
                    : std::vector<std::pair<char, SimTime>>{{'d', 1}, {'t', 1}};
    EXPECT_EQ(journal.entries, expected) << "timer_first=" << timer_first;
    EXPECT_EQ(stats.timer_fires, 1u);
    EXPECT_EQ(stats.deliveries, 1u);
    // Timers are not radio traffic: completion time is the last delivery.
    EXPECT_EQ(stats.completion_time, 1u);
  }
}

// Arms `count` timers at start, `delay` apart, re-arming nothing.
class AlarmNode final : public ProtocolNode {
 public:
  explicit AlarmNode(int count) : count_(count) {}
  void on_start(Context& ctx) override {
    for (int i = 1; i <= count_; ++i) {
      ctx.set_timer(static_cast<SimTime>(i * 40), static_cast<std::uint64_t>(i));
    }
    if (ctx.self() == 0) ctx.broadcast(1);
  }
  void on_receive(Context&, const Message&) override {}
  void on_timer(Context& ctx, std::uint64_t token) override {
    last_fire_ = ctx.now();
    last_token_ = token;
  }
  SimTime last_fire_ = 0;
  std::uint64_t last_token_ = 0;

 private:
  int count_;
};

TEST(Runtime, TimerFiresAreCountedUnderEveryDelayModel) {
  const auto g = graph::from_edges(3, {{0, 1}, {1, 2}});
  for (const auto& delays :
       {DelayModel::unit(), DelayModel::uniform(1, 6, 3)}) {
    Runtime rt(g, [](NodeId) { return std::make_unique<AlarmNode>(3); },
               delays);
    const auto stats = rt.run();
    EXPECT_EQ(stats.timer_fires, 9u);  // 3 nodes x 3 timers
    EXPECT_EQ(stats.transmissions, 1u);
    for (NodeId u = 0; u < 3; ++u) {
      const auto& node = static_cast<const AlarmNode&>(rt.node(u));
      EXPECT_EQ(node.last_fire_, 120u);
      EXPECT_EQ(node.last_token_, 3u);
    }
    EXPECT_EQ(rt.now(), 120u);
  }
}

// The trace's queue depth counts pending deliveries only: the timers armed
// before the broadcast are not in it.
TEST(Runtime, QueueDepthExcludesTimers) {
  const auto g = graph::from_edges(3, {{0, 1}, {0, 2}});
  obs::Recorder recorder;
  obs::MemoryTraceSink sink;
  recorder.set_trace_sink(&sink);
  Runtime rt(g, [](NodeId) { return std::make_unique<AlarmNode>(2); },
             DelayModel::unit(), &recorder);
  (void)rt.run();
  const auto& events = sink.events();
  ASSERT_EQ(events.size(), 3u);  // node 0's send, then two deliveries
  EXPECT_EQ(events[0].kind, obs::TraceEvent::Kind::kSend);
  EXPECT_EQ(events[0].queue_depth, 2u);  // two copies; six timers pending
  EXPECT_EQ(events[1].queue_depth, 1u);
  EXPECT_EQ(events[2].queue_depth, 0u);
  EXPECT_EQ(rt.max_queue_depth(), 2u);
}

TEST(Runtime, DeterministicAcrossRuns) {
  const auto inst = testing::connected_udg(120, 8.0, 3);
  const auto run_once = [&]() {
    Runtime rt(inst.g, [](NodeId) { return std::make_unique<FloodNode>(); });
    auto stats = rt.run();
    std::vector<NodeId> froms;
    for (NodeId u = 0; u < inst.g.node_count(); ++u) {
      froms.push_back(static_cast<const FloodNode&>(rt.node(u)).last_from_);
    }
    return std::pair{stats.transmissions, froms};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(Runtime, NullFactoryRejected) {
  const auto g = graph::from_edges(2, {{0, 1}});
  EXPECT_THROW(Runtime(g, [](NodeId) -> std::unique_ptr<ProtocolNode> {
                 return nullptr;
               }),
               std::invalid_argument);
}

}  // namespace
}  // namespace wcds::sim
