// (k,m)-resilient backbones: graph::biconnected_components ground truth,
// the two-phase augmentation (wcds/resilient.h) through the facade, the
// (k,m) auditor's seeded corruptions (one per new invariant, mirroring
// audit_invariants_test), and the survival-vs-repair contrast the A9
// experiment quantifies.
#include "wcds/resilient.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/audit.h"
#include "check/check.h"
#include "facade/build.h"
#include "graph/biconnected.h"
#include "graph/graph.h"
#include "maintenance/crash_schedule.h"
#include "maintenance/dynamic_wcds.h"
#include "obs/recorder.h"
#include "test_util.h"
#include "wcds/algorithm2.h"
#include "wcds/verify.h"
#include "wcds/wcds_result.h"

namespace wcds {
namespace {

using check::AuditOptions;
using check::CheckError;
using core::ResilienceSpec;
using core::WcdsResult;

// --- graph::biconnected_components ------------------------------------------

TEST(Biconnected, PathHasInteriorCutVertices) {
  // 0-1-2-3: interior nodes 1, 2 are cut vertices; 3 blocks (one per edge).
  const auto g = graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  const auto bcc = graph::biconnected_components(g);
  EXPECT_EQ(bcc.cut_vertices(), (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(bcc.block_count, 3u);
}

TEST(Biconnected, CycleIsOneBlock) {
  const auto g =
      graph::from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
  const auto bcc = graph::biconnected_components(g);
  EXPECT_TRUE(bcc.cut_vertices().empty());
  EXPECT_EQ(bcc.block_count, 1u);
}

TEST(Biconnected, SharedVertexOfTwoTrianglesCuts) {
  // Triangles {0,1,2} and {2,3,4} share node 2.
  const auto g = graph::from_edges(
      5, {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 2}});
  const auto bcc = graph::biconnected_components(g);
  EXPECT_EQ(bcc.cut_vertices(), (std::vector<NodeId>{2}));
  EXPECT_EQ(bcc.block_count, 2u);
  // Both directed slots of an edge carry the same block id, and the two
  // triangles land in different blocks.
  const auto block_of = [&](NodeId a, NodeId b) {
    const auto slot = g.edge_slot(a, b);
    EXPECT_EQ(bcc.edge_block[slot], bcc.edge_block[g.edge_slot(b, a)]);
    return bcc.edge_block[slot];
  };
  EXPECT_EQ(block_of(0, 1), block_of(1, 2));
  EXPECT_NE(block_of(0, 1), block_of(3, 4));
}

TEST(Biconnected, StarCenterCutsAndDisconnectedGraphsWork) {
  const auto star = graph::from_edges(4, {{0, 1}, {0, 2}, {0, 3}});
  const auto bcc = graph::biconnected_components(star);
  EXPECT_EQ(bcc.cut_vertices(), (std::vector<NodeId>{0}));
  EXPECT_EQ(bcc.block_count, 3u);

  // Two disjoint edges plus an isolated node: no cut vertices, 2 blocks.
  const auto split = graph::from_edges(5, {{0, 1}, {2, 3}});
  const auto split_bcc = graph::biconnected_components(split);
  EXPECT_TRUE(split_bcc.cut_vertices().empty());
  EXPECT_EQ(split_bcc.block_count, 2u);
}

// --- augmentation through the facade ----------------------------------------

// Count of dominator neighbors (open neighborhood) of u.
std::size_t cover_of(const graph::Graph& g, const WcdsResult& result,
                     NodeId u) {
  std::size_t cover = 0;
  for (NodeId v : g.neighbors(u)) cover += result.contains(v) ? 1 : 0;
  return cover;
}

TEST(Resilience, MFoldLayersCoverEveryOutsideNode) {
  const auto inst = wcds::testing::connected_udg(80, 9.0, 3);
  for (const std::uint32_t m : {2u, 3u}) {
    core::BuildOptions options;
    options.resilience = ResilienceSpec{1, m};
    const auto report = core::build(inst.g, options);
    for (NodeId u = 0; u < inst.g.node_count(); ++u) {
      if (report.result.contains(u)) continue;
      EXPECT_GE(cover_of(inst.g, report.result, u), m) << "node " << u;
    }
    // The plain invariants still hold alongside the new family.
    AuditOptions audit;
    audit.unit_disk = true;
    audit.resilience = options.resilience;
    EXPECT_NO_THROW(check::audit_invariants(inst.g, report.result, audit));
    EXPECT_TRUE(core::audit_result(inst.g, report.result));
  }
}

TEST(Resilience, TwoConnectedBackboneSurvivesEverySingleCrash) {
  const auto inst = wcds::testing::connected_udg(90, 9.0, 5);
  core::BuildOptions options;
  options.resilience = ResilienceSpec{2, 2};
  const auto report = core::build(inst.g, options);

  // Every backbone crash is judged per surviving component, so the
  // survival schedule over the *entire* backbone must be clean.
  const auto survival = maintenance::run_survival_schedule(
      inst.g, report.result, report.result.dominators);
  EXPECT_EQ(survival.crashes, report.result.size());
  EXPECT_TRUE(survival.all_survived())
      << survival.failed.size() << " crashes broke the backbone, first: "
      << (survival.failed.empty() ? kInvalidNode : survival.failed.front());

  // And the auditor agrees (it re-checks exactly this, internally).
  AuditOptions audit;
  audit.unit_disk = true;
  audit.resilience = options.resilience;
  EXPECT_NO_THROW(check::audit_invariants(inst.g, report.result, audit));
}

TEST(Resilience, ProtocolModeAugmentsPerComponent) {
  // Two far-apart clusters: one disconnected deployment, protocol mode.
  auto a = wcds::testing::connected_udg(40, 8.0, 11);
  const auto b = wcds::testing::connected_udg(40, 8.0, 13);
  for (auto p : b.points) {
    p.x += 1000.0;
    a.points.push_back(p);
  }
  const auto g = udg::build_udg(a.points);
  ASSERT_FALSE(graph::is_connected(g));

  core::BuildOptions options;
  options.algorithm = core::BuildAlgorithm::kAlgorithm2Protocol;
  options.resilience = ResilienceSpec{2, 2};
  const auto report = core::build(g, options);
  const auto survival = maintenance::run_survival_schedule(
      g, report.result, report.result.dominators);
  EXPECT_TRUE(survival.all_survived());
}

TEST(Resilience, PlainBackboneHasSingleCrashFailurePoints) {
  // Sanity for the contrast A9 reports: the unaugmented Algorithm II
  // backbone on a sparse deployment generally does NOT survive every
  // dominator crash (if it always did, resilience would be free).
  const auto inst = wcds::testing::connected_udg(90, 7.0, 5);
  const auto plain = core::algorithm2(inst.g).result;
  const auto survival =
      maintenance::run_survival_schedule(inst.g, plain, plain.dominators);
  EXPECT_FALSE(survival.all_survived());
}

TEST(Resilience, RequiresConstructibleSpec) {
  const auto inst = wcds::testing::connected_udg(30, 8.0, 7);
  auto result = core::algorithm2(inst.g).result;
  // (2,1) cannot keep domination through a crash; the API refuses it.
  EXPECT_THROW(
      core::augment_resilience(inst.g, result, ResilienceSpec{2, 1}),
      std::invalid_argument);
  EXPECT_THROW(
      core::augment_resilience(inst.g, result, ResilienceSpec{3, 3}),
      std::invalid_argument);
}

TEST(Resilience, RecordsMetrics) {
  const auto inst = wcds::testing::connected_udg(60, 9.0, 9);
  obs::Recorder recorder;
  core::BuildOptions options;
  options.resilience = ResilienceSpec{2, 2};
  options.recorder = &recorder;
  const auto report = core::build(inst.g, options);
  const auto snapshot = recorder.snapshot();
  EXPECT_EQ(snapshot.counters.at("resilience/augments"), 1u);
  EXPECT_EQ(snapshot.histograms.at("resilience/backbone_size").count, 1u);
  EXPECT_DOUBLE_EQ(snapshot.histograms.at("resilience/backbone_size").max,
                   static_cast<double>(report.result.size()));
}

// --- seeded corruptions, one per new invariant -------------------------------

void ExpectAuditFailure(const graph::Graph& g, const WcdsResult& result,
                        const AuditOptions& options,
                        const std::string& invariant) {
  try {
    check::audit_invariants(g, result, options);
    FAIL() << "audit_invariants accepted a corruption that violates "
           << invariant;
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(invariant), std::string::npos)
        << "failure message does not name " << invariant << ": " << e.what();
  }
}

// Demote dominator `victim` consistently (mask and membership lists), so
// the corruption reaches the (k,m) family instead of tripping audit_result.
void demote(WcdsResult& result, NodeId victim) {
  result.mask[victim] = false;
  const auto drop = [victim](std::vector<NodeId>& list) {
    list.erase(std::remove(list.begin(), list.end(), victim), list.end());
  };
  drop(result.dominators);
  drop(result.mis_dominators);
  drop(result.additional_dominators);
}

TEST(Resilience, RejectsDroppedMFoldCoverage) {
  const auto inst = wcds::testing::connected_udg(70, 9.0, 17);
  const auto plain = core::algorithm2(inst.g).result;
  core::BuildOptions options;
  options.resilience = ResilienceSpec{1, 2};
  auto report = core::build(inst.g, options);

  // Drop a *layer* dominator — one added by the augmentation, not an S
  // member or bridge (corrupting those trips the plain families first) —
  // of a node sitting exactly at m-fold coverage: that node falls below m
  // and the m-fold invariant must fire.
  const auto is_layer_member = [&](NodeId v) {
    return report.result.contains(v) && !plain.contains(v);
  };
  NodeId victim = kInvalidNode;
  for (NodeId u = 0; u < inst.g.node_count() && victim == kInvalidNode; ++u) {
    if (report.result.contains(u)) continue;
    if (cover_of(inst.g, report.result, u) != 2) continue;
    for (NodeId v : inst.g.neighbors(u)) {
      if (is_layer_member(v)) {
        victim = v;
        break;
      }
    }
  }
  ASSERT_NE(victim, kInvalidNode)
      << "no node at exact m-fold coverage via a layer dominator";
  demote(report.result, victim);

  AuditOptions audit;
  audit.resilience = ResilienceSpec{1, 2};
  ExpectAuditFailure(inst.g, report.result, audit,
                     "(k,m)-resilience (m-fold domination)");
}

TEST(Resilience, RejectsCutEar) {
  // C5 with the full cycle as backbone is 2-connected: every single crash
  // leaves a weakly induced path.  Cutting the {3, 4} ear leaves backbone
  // {0, 1, 2}, and the crash of 1 splits the survivors ({0,4} vs {2,3})
  // while G minus 1 stays connected — the survivability invariant fires.
  const auto g =
      graph::from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
  WcdsResult result;
  result.mask.assign(5, true);
  result.dominators = {0, 1, 2, 3, 4};
  result.mis_dominators = {0, 2};  // maximal: 1,3,4 all have an MIS neighbor
  result.additional_dominators = {1, 3, 4};

  AuditOptions audit;
  audit.resilience = ResilienceSpec{2, 1};  // isolate survivability
  const NodeId crash_one[] = {1};
  ASSERT_TRUE(check::survives_crashes(g, result, crash_one));
  EXPECT_NO_THROW(check::audit_invariants(g, result, audit));

  demote(result, 3);
  demote(result, 4);
  EXPECT_FALSE(check::survives_crashes(g, result, crash_one));
  ExpectAuditFailure(g, result, audit, "(k,m)-resilience (survivability)");
}

// --- crash orphans and G's own cut vertices ----------------------------------

TEST(Resilience, SurvivesCrashesExcusesOrphansAndGraphCuts) {
  // Star: the center is a cut vertex of G itself, so its crash is excused
  // per component (each leaf becomes an isolated orphan with every
  // neighbor down).
  const auto g = graph::from_edges(4, {{0, 1}, {0, 2}, {0, 3}});
  WcdsResult result;
  result.mask = {true, true, false, false};
  result.dominators = {0, 1};
  result.mis_dominators = {0};
  result.additional_dominators = {1};
  const NodeId crash_center[] = {0};
  const NodeId crash_leaf[] = {1};
  EXPECT_TRUE(check::survives_crashes(g, result, crash_center));
  // Crashing leaf dominator 1 leaves {0} dominating everything: fine too.
  EXPECT_TRUE(check::survives_crashes(g, result, crash_leaf));
}

// --- survival vs repair (the A9 contrast) ------------------------------------

TEST(Resilience, ResilientBackboneAbsorbsWhatDynamicWcdsMustRepair) {
  const auto inst = wcds::testing::connected_udg(80, 9.0, 21);

  // Victim schedule: a few spread-out nodes (the A6 stepping pattern).
  const auto n = static_cast<NodeId>(inst.g.node_count());
  std::vector<NodeId> victims;
  for (std::size_t i = 1; i <= 5; ++i) {
    const auto v = static_cast<NodeId>((i * n) / 11 % n);
    if (std::find(victims.begin(), victims.end(), v) == victims.end()) {
      victims.push_back(v);
    }
  }

  // Plain arm: the maintained backbone runs the paper's localized repair
  // for every crash and recovery.
  obs::Recorder plain_recorder;
  maintenance::DynamicWcds dynamic(inst.points);
  dynamic.set_recorder(&plain_recorder);
  const auto schedule =
      maintenance::run_crash_schedule(dynamic, victims, &plain_recorder);
  EXPECT_EQ(schedule.outcomes.size(), victims.size());
  const auto plain_snapshot = plain_recorder.snapshot();
  EXPECT_EQ(plain_snapshot.histograms.at("fault/repair_ms").count,
            2 * victims.size());

  // Resilient arm: the same victims against the static (2,2) backbone —
  // zero repair events, every crash absorbed.
  obs::Recorder resilient_recorder;
  core::BuildOptions options;
  options.resilience = ResilienceSpec{2, 2};
  options.recorder = &resilient_recorder;
  const auto report = core::build(inst.g, options);
  const auto survival = maintenance::run_survival_schedule(
      inst.g, report.result, victims, &resilient_recorder);
  EXPECT_TRUE(survival.all_survived());
  const auto snapshot = resilient_recorder.snapshot();
  EXPECT_EQ(snapshot.counters.at("resilience/survived_crashes"),
            victims.size());
  EXPECT_EQ(snapshot.counters.count("resilience/failed_crashes"), 0u);
  EXPECT_EQ(snapshot.histograms.count("fault/repair_ms"), 0u);
}

}  // namespace
}  // namespace wcds
