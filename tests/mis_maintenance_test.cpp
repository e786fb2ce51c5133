// Runtime under topology changes + distributed self-stabilizing MIS
// maintenance.
#include <gtest/gtest.h>

#include "geom/workload.h"
#include "mis/mis.h"
#include "protocols/mis_maintenance_protocol.h"
#include "test_util.h"
#include "udg/udg.h"

namespace wcds::protocols {
namespace {

// --- Runtime semantics under topology changes -------------------------------

class EchoNode final : public sim::ProtocolNode {
 public:
  void on_start(sim::Context& ctx) override {
    if (ctx.self() == 0) ctx.broadcast(1);
  }
  void on_receive(sim::Context&, const sim::Message&) override { ++received; }
  void on_link_up(sim::Context&, NodeId) override { ++ups; }
  void on_link_down(sim::Context&, NodeId) override { ++downs; }
  int received = 0;
  int ups = 0;
  int downs = 0;
};

TEST(DynamicRuntime, LinkEventsFireOnBothEndpoints) {
  const auto before = graph::from_edges(3, {{0, 1}});
  const auto after = graph::from_edges(3, {{1, 2}});
  sim::Runtime rt(before, [](NodeId) { return std::make_unique<EchoNode>(); });
  (void)rt.run();
  rt.apply_topology(after);
  (void)rt.run();
  EXPECT_EQ(static_cast<EchoNode&>(rt.node(0)).downs, 1);
  EXPECT_EQ(static_cast<EchoNode&>(rt.node(1)).downs, 1);
  EXPECT_EQ(static_cast<EchoNode&>(rt.node(1)).ups, 1);
  EXPECT_EQ(static_cast<EchoNode&>(rt.node(2)).ups, 1);
  EXPECT_TRUE(rt.topology().has_edge(1, 2));
  EXPECT_FALSE(rt.topology().has_edge(0, 1));
}

TEST(DynamicRuntime, InFlightMessagesOnDeadLinksAreDropped) {
  const auto before = graph::from_edges(2, {{0, 1}});
  graph::GraphBuilder b(2);
  const auto after = std::move(b).build();
  sim::Runtime rt(before, [](NodeId) { return std::make_unique<EchoNode>(); });
  // A zero budget runs on_start and stops with node 0's broadcast still in
  // flight; the link then dies under it.
  EXPECT_FALSE(rt.run(/*max_events=*/0).quiescent);
  rt.apply_topology(after);
  const auto stats = rt.run();
  EXPECT_TRUE(stats.quiescent);
  EXPECT_EQ(static_cast<EchoNode&>(rt.node(1)).received, 0);
  EXPECT_EQ(stats.dropped, 1u);
  EXPECT_EQ(stats.deliveries, 0u);
}

TEST(DynamicRuntime, StaleUnicastIsCountedDropped) {
  class StaleUnicaster final : public sim::ProtocolNode {
   public:
    void on_start(sim::Context&) override {}
    void on_receive(sim::Context&, const sim::Message&) override {}
    void on_link_down(sim::Context& ctx, NodeId gone) override {
      ctx.unicast(gone, 7);  // farewell into the void
    }
  };
  const auto before = graph::from_edges(2, {{0, 1}});
  graph::GraphBuilder b(2);
  sim::Runtime rt(before,
                  [](NodeId) { return std::make_unique<StaleUnicaster>(); });
  (void)rt.run();
  rt.apply_topology(std::move(b).build());
  const auto stats = rt.run();
  EXPECT_EQ(stats.dropped, 2u);  // both farewells missed
  EXPECT_EQ(stats.transmissions, 2u);
}

// Node 0 sends numbered broadcasts; the receiver checks they arrive in
// order.  On link-up node 0 continues the numbering.
class Sequencer final : public sim::ProtocolNode {
 public:
  void on_start(sim::Context& ctx) override {
    if (ctx.self() == 0) send_burst(ctx);
  }
  void on_receive(sim::Context&, const sim::Message& msg) override {
    in_order = in_order && msg.payload[0] == next;
    ++next;
  }
  void on_link_up(sim::Context& ctx, NodeId) override {
    if (ctx.self() == 0) send_burst(ctx);
  }
  bool in_order = true;
  std::uint32_t next = 0;

 private:
  void send_burst(sim::Context& ctx) {
    for (std::uint32_t i = 0; i < 20; ++i) ctx.broadcast(1, {sent_++});
  }
  std::uint32_t sent_ = 0;
};

// Regression: without per-link FIFO, reordered COLOR broadcasts leave stale
// state behind (a node's final color announcement overtaken by an earlier
// one).  The MIS must stabilize under wide random jitter.
TEST(DynamicRuntime, PerLinkFifoPreservedUnderAsync) {
  const auto g = graph::from_edges(2, {{0, 1}});
  sim::Runtime rt(g, [](NodeId) { return std::make_unique<Sequencer>(); },
                  sim::DelayModel::uniform(1, 25, 7));
  ASSERT_TRUE(rt.run().quiescent);
  const auto& receiver = static_cast<Sequencer&>(rt.node(1));
  EXPECT_TRUE(receiver.in_order);
  EXPECT_EQ(receiver.next, 20u);
}

// A link that goes down and comes back while copies are still in flight on
// it keeps its FIFO clock: the burst sent on link-up queues behind them.
TEST(DynamicRuntime, PerLinkFifoSurvivesLinkFlap) {
  const auto up = graph::from_edges(2, {{0, 1}});
  graph::GraphBuilder b(2);
  const auto down = std::move(b).build();
  sim::Runtime rt(up, [](NodeId) { return std::make_unique<Sequencer>(); },
                  sim::DelayModel::uniform(1, 25, 7));
  EXPECT_FALSE(rt.run(/*max_events=*/0).quiescent);  // first burst in flight
  rt.apply_topology(down);
  rt.apply_topology(up);  // node 0 sends the second burst at time 0
  const auto stats = rt.run();
  ASSERT_TRUE(stats.quiescent);
  const auto& receiver = static_cast<Sequencer&>(rt.node(1));
  EXPECT_TRUE(receiver.in_order);
  EXPECT_EQ(receiver.next, 40u);
  EXPECT_EQ(stats.dropped, 0u);
}

// Hub 4 sends numbered broadcasts, three at start and three on every link
// up; each receiver logs (number, slot it files the hub under).
class BurstHub final : public sim::ProtocolNode {
 public:
  void on_start(sim::Context& ctx) override {
    if (ctx.self() == 4) send_burst(ctx);
  }
  void on_receive(sim::Context& ctx, const sim::Message& msg) override {
    heard.emplace_back(msg.payload[0], ctx.neighbor_slot(msg.src));
  }
  void on_link_up(sim::Context& ctx, NodeId) override {
    if (ctx.self() == 4) send_burst(ctx);
  }
  std::vector<std::pair<std::uint32_t, std::size_t>> heard;

 private:
  void send_burst(sim::Context& ctx) {
    for (int i = 0; i < 3; ++i) ctx.broadcast(1, {sent_++});
  }
  std::uint32_t sent_ = 0;
};

// A degree-4 broadcast burst is in flight when one link dies, another dies
// and comes back, and a new neighbor appears.  A copy is dropped iff its
// link is gone at delivery time, so 1 loses the first burst while 2 hears
// it; 3 hears only what was sent after it joined; every link stays FIFO.
TEST(DynamicRuntime, InFlightBroadcastAcrossTopologyChanges) {
  const auto t0 = graph::from_edges(
      7, {{4, 1}, {4, 2}, {4, 5}, {4, 6}, {0, 1}, {0, 2}, {0, 5}});
  const auto t1 = graph::from_edges(
      7, {{4, 3}, {4, 5}, {4, 6}, {0, 1}, {0, 2}, {0, 5}});
  const auto t2 = graph::from_edges(
      7, {{4, 2}, {4, 3}, {4, 5}, {4, 6}, {0, 1}, {0, 2}, {0, 5}});
  sim::Runtime rt(t0, [](NodeId) { return std::make_unique<BurstHub>(); });
  EXPECT_FALSE(rt.run(/*max_events=*/0).quiescent);  // first burst in flight
  rt.apply_topology(t1);  // 4-1 and 4-2 down, 4-3 up: second burst
  rt.apply_topology(t2);  // 4-2 back up: third burst
  const auto stats = rt.run();
  ASSERT_TRUE(stats.quiescent);
  using Heard = std::vector<std::pair<std::uint32_t, std::size_t>>;
  const auto heard = [&](NodeId u) {
    return static_cast<const BurstHub&>(rt.node(u)).heard;
  };
  EXPECT_EQ(heard(0), Heard{});
  EXPECT_EQ(heard(1), Heard{});
  EXPECT_EQ(heard(2), (Heard{{0, 1}, {1, 1}, {2, 1}, {6, 1}, {7, 1}, {8, 1}}));
  EXPECT_EQ(heard(3), (Heard{{3, 0}, {4, 0}, {5, 0}, {6, 0}, {7, 0}, {8, 0}}));
  EXPECT_EQ(heard(5), (Heard{{0, 1}, {1, 1}, {2, 1}, {3, 1}, {4, 1}, {5, 1},
                             {6, 1}, {7, 1}, {8, 1}}));
  EXPECT_EQ(heard(6), (Heard{{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}, {5, 0},
                             {6, 0}, {7, 0}, {8, 0}}));
  EXPECT_EQ(stats.transmissions, 9u);
  EXPECT_EQ(stats.deliveries, 30u);
  EXPECT_EQ(stats.dropped, 3u);
}

// --- MIS maintenance ---------------------------------------------------------

void expect_valid_mis(const graph::Graph& g, const std::vector<bool>& mask,
                      const char* context) {
  EXPECT_TRUE(mis::is_maximal_independent_set(g, mask)) << context;
}

TEST(MisMaintenance, InitialStabilizationIsAnMis) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto inst = testing::connected_udg(150, 9.0, seed);
    MisMaintenanceSession session(inst.g);
    ASSERT_TRUE(session.stabilize());
    expect_valid_mis(inst.g, session.mis_mask(), "initial");
  }
}

TEST(MisMaintenance, SingleNodeAndEdgeless) {
  graph::GraphBuilder b1(1);
  MisMaintenanceSession one(std::move(b1).build());
  ASSERT_TRUE(one.stabilize());
  EXPECT_TRUE(one.mis_mask()[0]);

  graph::GraphBuilder b3(3);  // three isolated nodes
  MisMaintenanceSession iso(std::move(b3).build());
  ASSERT_TRUE(iso.stabilize());
  const auto mask = iso.mis_mask();
  EXPECT_TRUE(mask[0] && mask[1] && mask[2]);
}

TEST(MisMaintenance, LinkUpConflictResolvesTowardLowerId) {
  // Two components, each with its own dominator; join them.
  const auto before = graph::from_edges(4, {{0, 1}, {2, 3}});
  MisMaintenanceSession session(before);
  ASSERT_TRUE(session.stabilize());
  auto mask = session.mis_mask();
  EXPECT_TRUE(mask[0]);
  EXPECT_TRUE(mask[2]);
  // Join the dominators directly: 0-2 edge appears.
  const auto after = graph::from_edges(4, {{0, 1}, {2, 3}, {0, 2}});
  ASSERT_TRUE(session.update(after));
  mask = session.mis_mask();
  expect_valid_mis(after, mask, "after join");
  EXPECT_TRUE(mask[0]);   // lower ID keeps the role
  EXPECT_FALSE(mask[2]);  // higher ID yielded
  EXPECT_TRUE(mask[3]);   // 3 lost its dominator and self-promoted
}

TEST(MisMaintenance, LinkDownOrphanPromotes) {
  const auto before = graph::from_edges(3, {{0, 1}, {1, 2}});
  MisMaintenanceSession session(before);
  ASSERT_TRUE(session.stabilize());
  EXPECT_TRUE(session.mis_mask()[0]);
  // Cut 1-2: node 2 is alone and must become its own dominator.
  const auto after = graph::from_edges(3, {{0, 1}});
  ASSERT_TRUE(session.update(after));
  const auto mask = session.mis_mask();
  expect_valid_mis(after, mask, "after cut");
  EXPECT_TRUE(mask[2]);
}

TEST(MisMaintenance, MobilityChurnKeepsMisValid) {
  const std::uint32_t n = 120;
  const double side = geom::side_for_expected_degree(n, 10.0);
  auto points = geom::uniform_square(n, side, 3);
  MisMaintenanceSession session(udg::build_udg(points));
  ASSERT_TRUE(session.stabilize());
  geom::Xoshiro256ss rng(99);
  for (int step = 0; step < 25; ++step) {
    const auto u = static_cast<NodeId>(rng.next_below(n));
    points[u].x += rng.next_double(-1.0, 1.0);
    points[u].y += rng.next_double(-1.0, 1.0);
    const auto g = udg::build_udg(points);
    ASSERT_TRUE(session.update(g)) << "step " << step;
    expect_valid_mis(g, session.mis_mask(), "churn step");
  }
}

TEST(MisMaintenance, ChurnUnderMessageLossRecoversViaWatchdog) {
  // Topology churn while every message copy independently rolls a 20% loss.
  // Lost COLOR announcements can strand stale knowledge, so plain
  // stabilization no longer guarantees a valid MIS — the liveness watchdog
  // (re-announce everywhere, restabilize, repeat) must close the gaps.
  const std::uint32_t n = 100;
  const double side = geom::side_for_expected_degree(n, 10.0);
  auto points = geom::uniform_square(n, side, 5);
  MisMaintenanceSession session(udg::build_udg(points));
  ASSERT_TRUE(session.stabilize());
  session.set_loss(0.2, 77);
  geom::Xoshiro256ss rng(42);
  for (int step = 0; step < 15; ++step) {
    const auto u = static_cast<NodeId>(rng.next_below(n));
    points[u].x += rng.next_double(-1.0, 1.0);
    points[u].y += rng.next_double(-1.0, 1.0);
    const auto g = udg::build_udg(points);
    ASSERT_TRUE(session.update(g)) << "step " << step;
    ASSERT_TRUE(session.watchdog()) << "step " << step;
    expect_valid_mis(g, session.mis_mask(), "lossy churn step");
  }
}

TEST(MisMaintenance, CrashRecoverUnderLossConverges) {
  // Crash a node (all its links vanish), then bring it back — both under
  // 15% message loss.  The MIS must be valid over the survivor topology
  // while the node is down and again after it recovers.
  const std::uint32_t n = 90;
  const double side = geom::side_for_expected_degree(n, 10.0);
  auto points = geom::uniform_square(n, side, 8);
  MisMaintenanceSession session(udg::build_udg(points));
  ASSERT_TRUE(session.stabilize());
  session.set_loss(0.15, 31);
  for (const NodeId victim : {NodeId{7}, NodeId{42}}) {
    const geom::Point home = points[victim];
    points[victim] = {1e6 + victim, 1e6};  // out of everyone's range
    const auto down_graph = udg::build_udg(points);
    ASSERT_TRUE(session.update(down_graph));
    ASSERT_TRUE(session.watchdog()) << "victim " << victim << " down";
    expect_valid_mis(down_graph, session.mis_mask(), "victim down");
    points[victim] = home;
    const auto up_graph = udg::build_udg(points);
    ASSERT_TRUE(session.update(up_graph));
    ASSERT_TRUE(session.watchdog()) << "victim " << victim << " recovered";
    expect_valid_mis(up_graph, session.mis_mask(), "victim recovered");
  }
}

TEST(MisMaintenance, WorksUnderAsyncDelays) {
  const auto inst = testing::connected_udg(100, 9.0, 7);
  MisMaintenanceSession session(inst.g, sim::DelayModel::uniform(1, 5, 17));
  ASSERT_TRUE(session.stabilize());
  expect_valid_mis(inst.g, session.mis_mask(), "async initial");
}

TEST(MisMaintenance, RepeatedUpdatesStayQuiescent) {
  // Applying the same topology twice must cost nothing the second time.
  const auto inst = testing::connected_udg(80, 9.0, 11);
  MisMaintenanceSession session(inst.g);
  ASSERT_TRUE(session.stabilize());
  const auto tx_before = session.stats().transmissions;
  ASSERT_TRUE(session.update(inst.g));
  EXPECT_EQ(session.stats().transmissions, tx_before);
}

}  // namespace
}  // namespace wcds::protocols
