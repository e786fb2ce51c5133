// End-to-end integration: full pipeline from deployment to routed packets,
// cross-checking every layer against every other on shared instances.
#include <gtest/gtest.h>

#include "baselines/exact.h"
#include "baselines/greedy_cds.h"
#include "baselines/greedy_wcds.h"
#include "graph/bfs.h"
#include "mis/properties.h"
#include "protocols/algorithm1_protocol.h"
#include "protocols/algorithm2_protocol.h"
#include "routing/clusterhead_routing.h"
#include "spanner/analysis.h"
#include "test_util.h"
#include "wcds/algorithm1.h"
#include "wcds/algorithm2.h"
#include "wcds/verify.h"

namespace wcds {
namespace {

// One deployment; every construction must yield a valid WCDS/CDS and the
// proven size orderings must hold.
TEST(Integration, AllConstructionsValidOnSharedInstance) {
  const auto inst = testing::connected_udg(300, 11.0, 42);

  const auto a1 = core::algorithm1(inst.g);
  const auto a2 = core::algorithm2(inst.g);
  const auto d1 = protocols::run_algorithm1(inst.g);
  const auto d2 = protocols::run_algorithm2(inst.g);
  const auto gw = baselines::greedy_wcds(inst.g);
  const auto gc = baselines::greedy_cds(inst.g);

  EXPECT_TRUE(core::is_wcds(inst.g, a1.mask));
  EXPECT_TRUE(core::is_wcds(inst.g, a2.result.mask));
  EXPECT_TRUE(core::is_wcds(inst.g, d1.wcds.mask));
  EXPECT_TRUE(core::is_wcds(inst.g, d2.wcds.mask));
  EXPECT_TRUE(core::is_wcds(inst.g, gw.mask));
  EXPECT_TRUE(core::is_cds(inst.g, gc.mask));

  // Distributed == centralized for both algorithms' dominator sets
  // (Algorithm II may differ in additional-dominator choices but not MIS).
  EXPECT_EQ(d1.wcds.dominators, a1.dominators);
  EXPECT_EQ(d2.wcds.mis_dominators, a2.result.mis_dominators);

  // Size shape: Algorithm I (pure MIS) <= Algorithm II (MIS + bridges);
  // the greedy baseline is typically smallest.
  EXPECT_LE(a1.size(), a2.result.size());
  EXPECT_LE(gw.size(), a2.result.size());
}

TEST(Integration, SmallInstanceFullStackAgainstExactOpt) {
  const auto inst = testing::connected_udg(16, 5.0, 7);
  const auto exact = baselines::exact_min_wcds(inst.g);
  ASSERT_TRUE(exact.has_value());
  const std::size_t opt = exact->members.size();

  const auto a1 = core::algorithm1(inst.g);
  const auto a2 = core::algorithm2(inst.g);
  const auto gw = baselines::greedy_wcds(inst.g);

  EXPECT_LE(a1.size(), 5 * opt);          // Lemma 7
  EXPECT_LE(a2.result.size(), 240 * opt); // Theorem 10 constant
  EXPECT_GE(a1.size(), opt);
  EXPECT_GE(a2.result.size(), opt);
  EXPECT_GE(gw.size(), opt);
}

TEST(Integration, SpannerRoutingPipeline) {
  const auto inst = testing::connected_udg(200, 12.0, 13);
  const auto out = core::algorithm2(inst.g);
  const auto sp = core::extract_spanner(inst.g, out.result);

  // Dilation bounds feed routing-stretch expectations.
  const auto topo = spanner::topological_dilation(inst.g, sp, 30);
  EXPECT_LE(topo.max_slack, 0);

  const routing::ClusterheadRouter router(inst.g, out);
  const auto bfs0 = graph::bfs_distances(inst.g, 0);
  for (NodeId dst = 1; dst < inst.g.node_count(); dst += 11) {
    const auto r = router.route(0, dst);
    ASSERT_TRUE(r.delivered);
    EXPECT_LE(r.hops(), 3 * static_cast<std::size_t>(bfs0[dst]) + 10);
  }
}

TEST(Integration, WorkloadFamiliesAllSupported) {
  using geom::WorkloadKind;
  for (const auto kind :
       {WorkloadKind::kUniform, WorkloadKind::kClustered,
        WorkloadKind::kPerturbedGrid, WorkloadKind::kCorridor,
        WorkloadKind::kRing}) {
    geom::WorkloadParams params;
    params.kind = kind;
    params.count = 250;
    params.side = 7.5;
    params.seed = 3;
    const auto pts = geom::generate(params);
    const auto g = udg::build_udg(pts);
    if (!graph::is_connected(g)) continue;  // sparse corridor may split
    const auto out = core::algorithm2(g);
    EXPECT_TRUE(core::is_wcds(g, out.result.mask)) << geom::to_string(kind);
    const auto d2 = protocols::run_algorithm2(g);
    EXPECT_EQ(d2.wcds.mis_dominators, out.result.mis_dominators)
        << geom::to_string(kind);
  }
}

TEST(Integration, MisPropertiesHoldForAlgorithmMisSets) {
  const auto inst = testing::connected_udg(350, 9.0, 21);
  const auto a2 = core::algorithm2(inst.g);
  mis::MisResult s;
  s.members = a2.result.mis_dominators;
  s.mask.assign(inst.g.node_count(), false);
  for (NodeId u : s.members) s.mask[u] = true;
  EXPECT_LE(mis::max_mis_neighbors(inst.g, s.mask), 5u);
  const auto balls = mis::audit_mis_balls(inst.g, s.members);
  EXPECT_LE(balls.max_at_two_hops, 23u);
  EXPECT_LE(balls.max_within_three_hops, 47u);
  EXPECT_TRUE(balls.h3.connected());
  EXPECT_EQ(balls.adjacent, kInvalidNode);
}

}  // namespace
}  // namespace wcds
