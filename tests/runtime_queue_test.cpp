// Differential suite for the sim's event queue (docs/PERFORMANCE.md).
//
// The ring of time buckets (sim/event_queue.h) must pop in exactly the
// (time, seq) order of the std::map queue it replaced, kept here as the
// test oracle (reference_queue.h): randomized event streams under unit
// delays, uniform delays, per-link FIFO clamps beyond the largest delay, and
// timers far past the ring's horizon.  Whole-run equality with the old
// queues (every trace event, RunStats, WCDS) is pinned by
// trace_digest_test.cpp (RuntimeQueueDifferential.FlatMatchesReferenceMap-
// AcrossSeeds and .FacadeModesAgreeAcrossQueuePolicies).  A counting-allocator test then pins down the point
// of the flat design: the broadcast path performs no per-delivery heap
// allocation.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "geom/rng.h"
#include "graph/graph.h"
#include "obs/recorder.h"
#include "protocols/algorithm2_protocol.h"
#include "reference_queue.h"
#include "sim/event_queue.h"
#include "sim/runtime.h"
#include "test_util.h"

// --- Counting global allocator -------------------------------------------
//
// Replacing the global operator new/delete in this TU lets one test count
// exactly how many heap allocations Runtime::run performs.  Counting is
// gated on a flag so the rest of the suite (and gtest itself) is unaffected.

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* ptr = std::malloc(size == 0 ? 1 : size)) return ptr;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

// --------------------------------------------------------------------------

namespace {

using namespace wcds;

// How a randomized stream picks the delivery time of each new event.
enum class DelayShape {
  kUnit,       // every delivery one step out: two live buckets
  kUniform,    // uniform in [1, 5]
  kFifoClamp,  // uniform in [1, 5], clamped behind its link's last delivery
  kFarTimers,  // uniform deliveries plus timers up to 5000 steps out
};

// Drive the ring and the map oracle with the same event stream — each pop
// pushes up to three new events, as a protocol handler would — and require
// identical pops and sizes throughout.
void expect_same_pop_order(DelayShape shape, std::uint64_t seed) {
  sim::EventQueue ring;
  wcds::testing::ReferenceQueue oracle;
  geom::Xoshiro256ss rng(seed);
  std::vector<sim::SimTime> link_clock(8, 0);
  std::uint64_t seq = 0;
  const auto push = [&](sim::SimTime now) {
    sim::Event event{seq, seq * 7 + 3, static_cast<NodeId>(rng.next_below(64)),
                     false};
    ++seq;
    sim::SimTime at = now + 1;
    if (shape != DelayShape::kUnit) at = now + 1 + rng.next_below(5);
    if (shape == DelayShape::kFifoClamp) {
      sim::SimTime& clock = link_clock[rng.next_below(link_clock.size())];
      at = std::max(at, clock + 1);
      clock = at;
    }
    if (shape == DelayShape::kFarTimers && rng.next_below(4) == 0) {
      event.timer = true;
      at = now + rng.next_below(5001);  // zero-delay timers included
    }
    ring.push(at, event);
    oracle.push(at, event);
  };
  for (int i = 0; i < 32; ++i) push(0);
  std::size_t pops = 0;
  while (!oracle.empty()) {
    ASSERT_FALSE(ring.empty());
    ASSERT_EQ(ring.size(), oracle.size());
    const auto [at, expected] = oracle.pop();
    const sim::Event got = ring.pop();
    ASSERT_EQ(ring.now(), at) << "pop " << pops;
    ASSERT_EQ(got.seq, expected.seq) << "pop " << pops;
    ASSERT_EQ(got.ref, expected.ref) << "pop " << pops;
    ASSERT_EQ(got.node, expected.node) << "pop " << pops;
    ASSERT_EQ(got.timer, expected.timer) << "pop " << pops;
    ++pops;
    if (seq < 20'000) {
      const auto fanout = rng.next_below(4);
      for (std::uint64_t k = 0; k < fanout; ++k) push(at);
    }
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
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  const auto stats = rt.run();
  g_count_allocs.store(false, std::memory_order_relaxed);
  EXPECT_EQ(stats.deliveries, 2u * kLeaves);
  // Pool-deque blocks, bucket doublings, the per-type vector — all
  // amortized, orders of magnitude below the 1024 deliveries.
  EXPECT_LT(g_alloc_count.load(std::memory_order_relaxed), 100u);
}

}  // namespace
