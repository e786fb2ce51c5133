// The wcds::core::build() facade: per-mode report contents, observability
// snapshot wiring, error contracts, and the hardened WcdsResult accessors.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "facade/build.h"
#include "graph/graph.h"
#include "obs/recorder.h"
#include "routing/clusterhead_routing.h"
#include "test_util.h"
#include "wcds/verify.h"

namespace wcds {
namespace {

constexpr core::BuildAlgorithm kAllModes[] = {
    core::BuildAlgorithm::kAlgorithm1Central,
    core::BuildAlgorithm::kAlgorithm2Central,
    core::BuildAlgorithm::kAlgorithm1Protocol,
    core::BuildAlgorithm::kAlgorithm2Protocol,
};

core::BuildReport build_mode(const graph::Graph& g,
                             core::BuildAlgorithm algorithm,
                             obs::Recorder* recorder = nullptr) {
  core::BuildOptions options;
  options.algorithm = algorithm;
  options.recorder = recorder;
  return core::build(g, options);
}

TEST(Facade, EveryModeProducesAVerifiedWcds) {
  const auto inst = testing::connected_udg(90, 8.0, 2);
  for (const auto mode : kAllModes) {
    const auto report = build_mode(inst.g, mode);
    EXPECT_TRUE(core::is_wcds(inst.g, report.result.mask))
        << core::to_string(mode);
  }
}

TEST(Facade, CentralModesReportNoSimCosts) {
  const auto inst = testing::connected_udg(70, 8.0, 3);
  for (const auto mode : {core::BuildAlgorithm::kAlgorithm1Central,
                          core::BuildAlgorithm::kAlgorithm2Central}) {
    const auto report = build_mode(inst.g, mode);
    EXPECT_EQ(report.stats.transmissions, 0u) << core::to_string(mode);
    EXPECT_EQ(report.stats.completion_time, 0u) << core::to_string(mode);
  }
}

TEST(Facade, ProtocolModesReportSimCosts) {
  const auto inst = testing::connected_udg(70, 8.0, 3);
  for (const auto mode : {core::BuildAlgorithm::kAlgorithm1Protocol,
                          core::BuildAlgorithm::kAlgorithm2Protocol}) {
    const auto report = build_mode(inst.g, mode);
    EXPECT_TRUE(report.stats.quiescent) << core::to_string(mode);
    EXPECT_GT(report.stats.transmissions, 0u) << core::to_string(mode);
    EXPECT_GT(report.stats.completion_time, 0u) << core::to_string(mode);
  }
}

TEST(Facade, Algorithm1ModesReportLeaderAndLevels) {
  const auto inst = testing::connected_udg(70, 8.0, 4);
  const auto central =
      build_mode(inst.g, core::BuildAlgorithm::kAlgorithm1Central);
  EXPECT_EQ(central.leader, 0u);  // min-ID leadership criterion

  const auto protocol =
      build_mode(inst.g, core::BuildAlgorithm::kAlgorithm1Protocol);
  EXPECT_EQ(protocol.leader, 0u);
  ASSERT_EQ(protocol.levels.size(), inst.g.node_count());
  EXPECT_EQ(protocol.levels[protocol.leader], 0u);
}

TEST(Facade, ExplicitRootIsHonored) {
  const auto inst = testing::connected_udg(50, 8.0, 5);
  core::BuildOptions options;
  options.algorithm = core::BuildAlgorithm::kAlgorithm1Central;
  options.root = 7;
  const auto report = core::build(inst.g, options);
  EXPECT_EQ(report.leader, 7u);
  EXPECT_TRUE(core::is_wcds(inst.g, report.result.mask));
}

TEST(Facade, Algorithm2ViewFeedsTheRouter) {
  const auto inst = testing::connected_udg(80, 9.0, 6);
  const auto report =
      build_mode(inst.g, core::BuildAlgorithm::kAlgorithm2Central);
  EXPECT_EQ(report.lists.node_count(), inst.g.node_count());
  // The view borrows the report's storage — no copies on the serving path.
  const core::Algorithm2View view = report.algorithm2_view();
  EXPECT_EQ(&view.result(), &report.result);
  EXPECT_EQ(&view.lists(), &report.lists);
  const routing::ClusterheadRouter router(inst.g, view);
  const auto route = router.route(0, inst.g.node_count() - 1);
  EXPECT_TRUE(route.delivered);
}

TEST(Facade, ProtocolAlgorithm2ViewFeedsTheRouter) {
  // The protocol mode's 3HopDomLists come from the protocol nodes, so the
  // router over its view has every overlay edge the run bridged.
  for (const std::uint64_t seed : {1u, 2u, 5u}) {
    const auto inst = testing::connected_udg(300, 10.0, seed);
    const auto report =
        build_mode(inst.g, core::BuildAlgorithm::kAlgorithm2Protocol);
    ASSERT_EQ(report.lists.node_count(), inst.g.node_count());
    std::vector<bool> mis(inst.g.node_count(), false);
    for (const NodeId u : report.result.mis_dominators) mis[u] = true;
    std::vector<bool> additional(inst.g.node_count(), false);
    for (const NodeId v : report.result.additional_dominators) {
      additional[v] = true;
    }
    std::size_t entries = 0;
    for (NodeId u = 0; u < inst.g.node_count(); ++u) {
      for (const core::ThreeHopEntry& e : report.lists.three_hop(u)) {
        ++entries;
        EXPECT_TRUE(mis[u]) << seed << ": node " << u;
        EXPECT_TRUE(inst.g.has_edge(u, e.via1) &&
                    inst.g.has_edge(e.via1, e.via2) &&
                    inst.g.has_edge(e.via2, e.dom))
            << seed << ": " << u << "-" << e.via1 << "-" << e.via2 << "-"
            << e.dom;
        EXPECT_TRUE(additional[e.via1] || additional[e.via2])
            << seed << ": " << u << "-" << e.via1 << "-" << e.via2 << "-"
            << e.dom;
      }
    }
    EXPECT_GT(entries, 0u) << seed;
    const routing::ClusterheadRouter router(inst.g, report.algorithm2_view());
    std::size_t undelivered = 0;
    for (NodeId src = 0; src < inst.g.node_count(); src += 7) {
      for (NodeId dst = 0; dst < inst.g.node_count(); dst += 5) {
        if (!router.route(src, dst).delivered) ++undelivered;
      }
    }
    EXPECT_EQ(undelivered, 0u) << seed;
  }
}

TEST(Facade, RouterRejectsAnAlgorithm1Report) {
  // Algorithm I fills no dominator lists: a named error, not a wild read.
  const auto inst = testing::connected_udg(80, 9.0, 6);
  const auto report =
      build_mode(inst.g, core::BuildAlgorithm::kAlgorithm1Central);
  EXPECT_EQ(report.lists.node_count(), 0u);
  EXPECT_THROW(routing::ClusterheadRouter(inst.g, report.algorithm2_view()),
               std::invalid_argument);
}

TEST(Facade, ProtocolAlgorithm2ListsMatchCentralized) {
  // The protocol mode recomputes the 1- and 2-hop dominator lists centrally
  // from the timing-independent MIS fixpoint — they must agree with the
  // centralized mode's lists wholesale.
  const auto inst = testing::connected_udg(80, 9.0, 7);
  const auto central =
      build_mode(inst.g, core::BuildAlgorithm::kAlgorithm2Central);
  const auto protocol =
      build_mode(inst.g, core::BuildAlgorithm::kAlgorithm2Protocol);
  EXPECT_EQ(protocol.result.mis_dominators, central.result.mis_dominators);
  EXPECT_EQ(protocol.lists.one_hop_rows, central.lists.one_hop_rows);
  EXPECT_EQ(protocol.lists.two_hop_rows, central.lists.two_hop_rows);
}

TEST(Facade, RecorderSnapshotCapturesBuildMetrics) {
  const auto inst = testing::connected_udg(60, 8.0, 8);
  obs::Recorder recorder;
  const auto report = build_mode(
      inst.g, core::BuildAlgorithm::kAlgorithm2Protocol, &recorder);
  const auto& metrics = report.metrics;
  EXPECT_EQ(metrics.counters.at("build/runs"), 1u);
  EXPECT_EQ(metrics.counters.at("build/runs/algorithm2-protocol"), 1u);
  EXPECT_DOUBLE_EQ(metrics.histograms.at("build/wcds_size").mean,
                   static_cast<double>(report.result.size()));
  EXPECT_DOUBLE_EQ(metrics.histograms.at("build/transmissions").mean,
                   static_cast<double>(report.stats.transmissions));
  EXPECT_EQ(metrics.histograms.at("phase_ms/build/total").count, 1u);
  // The sim's own counters flow through the same recorder.
  EXPECT_EQ(metrics.counters.at("sim/transmissions"),
            report.stats.transmissions);
}

TEST(Facade, NoRecorderLeavesMetricsEmpty) {
  const auto inst = testing::connected_udg(40, 8.0, 9);
  const auto report =
      build_mode(inst.g, core::BuildAlgorithm::kAlgorithm2Central);
  EXPECT_TRUE(report.metrics.empty());
}

TEST(Facade, EmptyGraphThrows) {
  EXPECT_THROW((void)core::build(graph::Graph{}), std::invalid_argument);
}

// --- Hardened WcdsResult accessors ------------------------------------------

TEST(WcdsResultAccessors, ContainsIsBoundsChecked) {
  const auto inst = testing::connected_udg(30, 8.0, 10);
  const auto report =
      build_mode(inst.g, core::BuildAlgorithm::kAlgorithm2Central);
  for (const NodeId u : report.result.dominators) {
    EXPECT_TRUE(report.result.contains(u));
  }
  EXPECT_FALSE(report.result.contains(static_cast<NodeId>(1000000)));
  EXPECT_FALSE(report.result.contains(kInvalidNode));
}

}  // namespace
}  // namespace wcds
