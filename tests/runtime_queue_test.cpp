// Differential suite for the sim's event queue (docs/PERFORMANCE.md).
//
// The ring of time buckets (sim/event_queue.h) must deliver copies in
// exactly the (time, send order) of the std::map queue it replaced, kept
// here as the test oracle (reference_queue.h): randomized streams of
// single- and multi-copy records under unit delays, uniform delays,
// per-link FIFO clamps beyond the largest delay, and timers far past the
// ring's horizon, with records put back part-delivered and split in place
// along the way.  Whole-run equality with the old queues (every trace
// event, RunStats, WCDS) is pinned by trace_digest_test.cpp
// (RuntimeQueueDifferential.FlatMatchesReferenceMapAcrossSeeds and
// .FacadeModesAgreeAcrossQueuePolicies).  A counting-allocator test then
// pins down the point of the flat design: the broadcast path performs no
// per-delivery heap allocation.
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "bench_support/alloc_counter.h"
#include "geom/rng.h"
#include "graph/graph.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "protocols/algorithm2_protocol.h"
#include "reference_queue.h"
#include "sim/event_queue.h"
#include "sim/runtime.h"
#include "test_util.h"

namespace {

using namespace wcds;

// How a randomized stream picks the delivery time of each new event.
enum class DelayShape {
  kUnit,       // every delivery one step out: two live buckets
  kUniform,    // uniform in [1, 5]
  kFifoClamp,  // uniform in [1, 5], clamped behind its link's last delivery
  kFarTimers,  // uniform deliveries plus timers up to 5000 steps out
};

// Drive the ring and the map oracle with the same stream of records — the
// oracle gets each record as its consecutive copies, and each delivered
// copy pushes up to three new records, as a protocol handler would — and
// require the ring to deliver the same copies in the same order, with the
// same pending count throughout.  Now and then a record is put back part
// delivered (a budget trip) or every pending record is split into single
// copies (a topology change).
void expect_same_pop_order(DelayShape shape, std::uint64_t seed) {
  sim::EventQueue ring;
  wcds::testing::ReferenceQueue oracle;
  geom::Xoshiro256ss rng(seed);
  std::vector<sim::SimTime> link_clock(8, 0);
  std::uint64_t records = 0;
  const auto push = [&](sim::SimTime now) {
    sim::Event event{records * 7 + 3, sim::kBroadcastDst,
                     static_cast<std::uint32_t>(rng.next_below(64)),
                     1 + static_cast<std::uint32_t>(rng.next_below(5)),
                     false};
    ++records;
    sim::SimTime at = now + 1;
    if (shape != DelayShape::kUnit) at = now + 1 + rng.next_below(5);
    if (shape == DelayShape::kFifoClamp) {
      sim::SimTime& clock = link_clock[rng.next_below(link_clock.size())];
      at = std::max(at, clock + 1);
      clock = at;
    }
    if (shape == DelayShape::kFarTimers && rng.next_below(4) == 0) {
      event.node = static_cast<NodeId>(rng.next_below(64));
      event.count = 1;
      event.timer = true;
      at = now + rng.next_below(5001);  // zero-delay timers included
    }
    ring.push(at, event);
    for (std::uint32_t k = 0; k < event.count; ++k) {
      sim::Event copy = event;
      copy.first += k;
      copy.count = 1;
      oracle.push(at, copy);
    }
  };
  const auto split = [](const sim::Event& event, std::vector<sim::Event>& out) {
    for (std::uint32_t k = 0; k < event.count; ++k) {
      sim::Event copy = event;
      copy.first += k;
      copy.count = 1;
      out.push_back(copy);
    }
  };
  for (int i = 0; i < 32; ++i) push(0);
  std::size_t pops = 0;
  while (!oracle.empty()) {
    ASSERT_FALSE(ring.empty());
    ASSERT_EQ(ring.size(), oracle.size());
    const sim::Event got = ring.pop();
    // Deliver a prefix of the record, rarely stopping short.
    std::uint32_t budget = got.count;
    if (rng.next_below(8) == 0) {
      budget = static_cast<std::uint32_t>(rng.next_below(got.count)) + 1;
    }
    for (std::uint32_t k = 0; k < budget; ++k) {
      const auto [at, expected] = oracle.pop();
      ASSERT_EQ(ring.now(), at) << "pop " << pops;
      ASSERT_EQ(got.ref, expected.ref) << "pop " << pops;
      ASSERT_EQ(got.node, expected.node) << "pop " << pops;
      ASSERT_EQ(got.first + k, expected.first) << "pop " << pops;
      ASSERT_EQ(expected.count, 1u) << "pop " << pops;
      ASSERT_EQ(got.timer, expected.timer) << "pop " << pops;
      ASSERT_EQ(ring.size() + (got.count - k - 1), oracle.size());
      ++pops;
      if (records < 20'000) {
        const auto fanout = rng.next_below(4);
        for (std::uint64_t f = 0; f < fanout; ++f) push(at);
      }
    }
    if (budget < got.count) {
      sim::Event rest = got;
      rest.first += budget;
      rest.count -= budget;
      ring.unpop(rest);
    }
    if (rng.next_below(64) == 0) ring.rewrite(split);
  }
  EXPECT_TRUE(ring.empty());
  EXPECT_GT(pops, 1000u);
  if (shape == DelayShape::kUnit) {
    EXPECT_EQ(ring.ring_size(), 2u);
  }
  if (shape == DelayShape::kFarTimers) {
    EXPECT_GE(ring.ring_size(), 4096u);
  }
}

TEST(RuntimeQueueDifferential, RingMatchesMapOracleUnderUnitDelays) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    expect_same_pop_order(DelayShape::kUnit, seed);
  }
}

TEST(RuntimeQueueDifferential, RingMatchesMapOracleUnderUniformDelays) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    expect_same_pop_order(DelayShape::kUniform, seed);
  }
}

TEST(RuntimeQueueDifferential, RingMatchesMapOracleUnderFifoClamps) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    expect_same_pop_order(DelayShape::kFifoClamp, seed);
  }
}

TEST(RuntimeQueueDifferential, RingGrowsInOrderForFarTimers) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    expect_same_pop_order(DelayShape::kFarTimers, seed);
  }
}

// A protocol that floods forever: every node broadcasts on start; every
// delivery triggers one more broadcast.  Used to trip the event budget and
// to count allocations on the broadcast hot path.
class ChatterNode final : public sim::ProtocolNode {
 public:
  void on_start(sim::Context& ctx) override { ctx.broadcast(1); }
  void on_receive(sim::Context& ctx, const sim::Message&) override {
    ctx.broadcast(1);
  }
};

TEST(RuntimeQueue, BudgetTripStillFoldsStatsAndRecordsQuiescentGauge) {
  const graph::Graph g = graph::from_edges(3, {{0, 1}, {1, 2}, {0, 2}});
  obs::Recorder recorder;
  sim::Runtime rt(
      g, [](NodeId) { return std::make_unique<ChatterNode>(); },
      sim::DelayModel::unit(), &recorder);
  const auto stats = rt.run(/*max_events=*/100);
  EXPECT_FALSE(stats.quiescent);
  EXPECT_EQ(stats.deliveries, 100u);
  // The budget-tripped run still folds the dense counters into per_type
  // and the metrics into the recorder (the pre-fix code skipped both).
  ASSERT_TRUE(stats.per_type.contains(1));
  EXPECT_GT(stats.per_type.at(1), 0u);
  const auto snapshot = recorder.snapshot();
  ASSERT_TRUE(snapshot.gauges.contains("sim/quiescent"));
  EXPECT_EQ(snapshot.gauges.at("sim/quiescent"), 0.0);
  EXPECT_EQ(snapshot.counters.at("sim/transmissions"), stats.transmissions);
}

// A bounded flood with replies, zero-delay timers and long payloads: every
// node logs what it hears, including the neighbor slot it files the sender
// under, so a resumed run that skipped, repeated or reordered one copy, or
// mis-resolved a sender, leaves a different log.
class ClusterNode final : public sim::ProtocolNode {
 public:
  static constexpr sim::MessageType kFlood = 1;
  static constexpr sim::MessageType kAck = 2;
  static constexpr sim::MessageType kWide = 3;

  void on_start(sim::Context& ctx) override {
    if (ctx.self() % 3 == 0) ctx.broadcast(kFlood, {2, ctx.self()});
  }
  void on_receive(sim::Context& ctx, const sim::Message& msg) override {
    log.push_back(ctx.now());
    log.push_back(msg.src);
    log.push_back(msg.type);
    log.push_back(ctx.neighbor_slot(msg.src));
    log.insert(log.end(), msg.payload.begin(), msg.payload.end());
    if (msg.type != kFlood) return;
    if (msg.payload[0] > 0) ctx.broadcast(kFlood, {msg.payload[0] - 1, ctx.self()});
    ctx.unicast(msg.src, kAck, {ctx.self()});
    if (msg.payload[0] == 1) ctx.set_timer(0, msg.src);
  }
  void on_timer(sim::Context& ctx, std::uint64_t token) override {
    log.push_back(ctx.now());
    log.push_back(99);
    log.push_back(token);
    // Longer than any inline payload.
    if (token % 2 == 0) ctx.broadcast(kWide, {1, 2, 3, 4, 5, 6, ctx.self()});
  }
  std::vector<std::uint64_t> log;
};

struct ClusterRun {
  sim::RunStats stats;
  std::vector<obs::TraceEvent> trace;
  std::vector<std::vector<std::uint64_t>> logs;
};

// One run of ClusterNode on a small degree-4 cluster; a non-zero `cut`
// first runs with max_events = cut - 1, then resumes to quiescence.
ClusterRun run_cluster(std::uint64_t cut) {
  const graph::Graph g = graph::from_edges(
      8, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 0},
          {0, 2}, {2, 4}, {4, 6}, {6, 0}, {1, 3}, {3, 5}, {5, 7}, {7, 1}});
  obs::Recorder recorder;
  obs::MemoryTraceSink sink;
  recorder.set_trace_sink(&sink);
  sim::Runtime rt(
      g, [](NodeId) { return std::make_unique<ClusterNode>(); },
      sim::DelayModel::unit(), &recorder);
  ClusterRun out;
  if (cut > 0) {
    const auto tripped = rt.run(cut - 1);
    EXPECT_FALSE(tripped.quiescent) << "cut " << cut;
  }
  out.stats = rt.run();
  out.trace = sink.events();
  for (NodeId u = 0; u < g.node_count(); ++u) {
    out.logs.push_back(static_cast<const ClusterNode&>(rt.node(u)).log);
  }
  return out;
}

// A budget trip may land between two copies of one broadcast.  Whatever the
// cut point, run() must resume from exactly the next copy: RunStats, every
// trace event (queue depth included) and every node's log equal one
// uninterrupted run.
TEST(RuntimeQueue, BudgetTripInsideBroadcastResumesExactly) {
  const ClusterRun whole = run_cluster(0);
  ASSERT_TRUE(whole.stats.quiescent);
  const std::uint64_t events = whole.stats.deliveries +
                               whole.stats.timer_fires + whole.stats.dropped;
  ASSERT_GT(events, 200u);
  ASSERT_GT(whole.stats.timer_fires, 0u);
  for (std::uint64_t cut = 1; cut <= events; ++cut) {
    const ClusterRun resumed = run_cluster(cut);
    ASSERT_EQ(resumed.stats, whole.stats) << "cut " << cut;
    ASSERT_EQ(resumed.logs, whole.logs) << "cut " << cut;
    ASSERT_EQ(resumed.trace.size(), whole.trace.size()) << "cut " << cut;
    for (std::size_t i = 0; i < whole.trace.size(); ++i) {
      const obs::TraceEvent& a = resumed.trace[i];
      const obs::TraceEvent& b = whole.trace[i];
      ASSERT_TRUE(a.kind == b.kind && a.time == b.time && a.src == b.src &&
                  a.dst == b.dst && a.message_type == b.message_type &&
                  a.queue_depth == b.queue_depth)
          << "cut " << cut << ", trace event " << i;
    }
  }
}

TEST(RuntimeQueue, QuiescentRunRecordsGaugeOne) {
  const auto inst = wcds::testing::connected_udg(40, 8.0, 1);
  obs::Recorder recorder;
  const auto run = protocols::run_algorithm2(inst.g, sim::DelayModel::unit(),
                                             &recorder);
  EXPECT_TRUE(run.stats.quiescent);
  const auto snapshot = recorder.snapshot();
  ASSERT_TRUE(snapshot.gauges.contains("sim/quiescent"));
  EXPECT_EQ(snapshot.gauges.at("sim/quiescent"), 1.0);
}

// The point of the pooled flat queue: a degree-d broadcast enqueues d POD
// records sharing one interned payload, so a full run performs only the
// amortized container growth — far fewer allocations than deliveries.
TEST(RuntimeQueue, BroadcastPathAllocationCount) {
  // Star K_{1,512}: the hub's single broadcast fans out to 512 recipients.
  constexpr std::uint32_t kLeaves = 512;
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(kLeaves);
  for (NodeId leaf = 1; leaf <= kLeaves; ++leaf) edges.push_back({0, leaf});
  const graph::Graph g = graph::from_edges(kLeaves + 1, edges);

  // Every node broadcasts once on start; nobody replies.  Deliveries:
  // 512 (hub's broadcast) + 512 (each leaf's broadcast reaching the hub).
  class OneShotNode final : public sim::ProtocolNode {
   public:
    void on_start(sim::Context& ctx) override { ctx.broadcast(1); }
    void on_receive(sim::Context&, const sim::Message&) override {}
  };

  sim::Runtime rt(
      g, [](NodeId) { return std::make_unique<OneShotNode>(); });
  bench::AllocationCounter counter;
  const auto stats = rt.run();
  const std::uint64_t allocations = counter.stop();
  EXPECT_EQ(stats.deliveries, 2u * kLeaves);
  // Pool-deque blocks, bucket doublings, the per-type vector — all
  // amortized, orders of magnitude below the 1024 deliveries.
  EXPECT_LT(allocations, 100u);
}

}  // namespace
