// Differential fuzzing: many random instances, every implementation checked
// against an independent oracle —
//   * exact solver vs every heuristic (lower-bound sandwich),
//   * distributed protocol state vs the centralized list computation,
//   * distributed Algorithm I vs the centralized reference across workloads.
#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/exact.h"
#include "baselines/greedy_cds.h"
#include "baselines/greedy_wcds.h"
#include "baselines/mis_tree_cds.h"
#include "facade/build.h"
#include "geom/workload.h"
#include "graph/bfs.h"
#include "mis/mis.h"
#include "protocols/algorithm1_protocol.h"
#include "protocols/algorithm2_protocol.h"
#include "sim/runtime.h"
#include "test_util.h"
#include "udg/udg.h"
#include "wcds/algorithm1.h"
#include "wcds/algorithm2.h"
#include "wcds/verify.h"

namespace wcds {
namespace {

TEST(Differential, ExactSandwichesEveryHeuristicOnTinyInstances) {
  // For 40 tiny instances: lb <= opt <= every heuristic <= n, and every
  // heuristic's output verifies.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto inst = testing::connected_udg(12, 4.5, seed);
    const auto exact = baselines::exact_min_wcds(inst.g);
    ASSERT_TRUE(exact.has_value()) << seed;
    const std::size_t opt = exact->members.size();
    EXPECT_TRUE(core::is_wcds(inst.g, graph::make_mask(12, exact->members)));

    const auto mis = mis::greedy_mis_by_id(inst.g);
    EXPECT_LE(baselines::udg_mwcds_lower_bound(mis.size()), opt) << seed;

    const auto a1 = core::algorithm1(inst.g);
    const auto a2 = core::algorithm2(inst.g);
    const auto gw = baselines::greedy_wcds(inst.g);
    const auto gc = baselines::greedy_cds(inst.g);
    const auto mc = baselines::mis_tree_cds(inst.g);
    for (const auto* r : {&a1, &a2.result, &gw, &gc, &mc}) {
      EXPECT_GE(r->size(), opt) << seed;
      EXPECT_LE(r->size(), 12u) << seed;
    }
    EXPECT_LE(a1.size(), 5 * opt) << seed;  // Lemma 7, instance by instance
  }
}

TEST(Differential, DistributedAlgorithm2ListsMatchCentralized) {
  // The protocol's per-node 1Hop/2Hop dominator knowledge must equal the
  // centralized list computation (as dominator sets; intermediate choices
  // are tie-break dependent but must name real paths).
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto inst = testing::connected_udg(120, 9.0, seed);
    const auto central = core::algorithm2(inst.g);

    sim::Runtime runtime(inst.g, [](NodeId) {
      return std::make_unique<protocols::Algorithm2Node>();
    });
    ASSERT_TRUE(runtime.run().quiescent);

    for (NodeId u = 0; u < inst.g.node_count(); ++u) {
      const auto& node =
          static_cast<const protocols::Algorithm2Node&>(runtime.node(u));
      // 1-hop lists are exactly equal (both sorted).
      EXPECT_EQ(node.one_hop_doms(), testing::to_vector(central.lists.one_hop(u)))
          << "node " << u;
      // 2-hop dominator sets are equal.
      std::vector<NodeId> dist_doms;
      for (const auto& e : node.two_hop_doms()) dist_doms.push_back(e.dom);
      std::sort(dist_doms.begin(), dist_doms.end());
      std::vector<NodeId> cent_doms;
      for (const auto& e : central.lists.two_hop(u)) cent_doms.push_back(e.dom);
      std::sort(cent_doms.begin(), cent_doms.end());
      EXPECT_EQ(dist_doms, cent_doms) << "node " << u;
      // Every distributed 2-hop intermediate names a real 2-hop path.
      for (const auto& e : node.two_hop_doms()) {
        EXPECT_TRUE(inst.g.has_edge(u, e.via));
        EXPECT_TRUE(inst.g.has_edge(e.via, e.dom));
      }
      // Every distributed 3-hop entry names a real 3-hop path.
      for (const auto& e : node.three_hop_doms()) {
        EXPECT_TRUE(inst.g.has_edge(u, e.via1));
        EXPECT_TRUE(inst.g.has_edge(e.via1, e.via2));
        EXPECT_TRUE(inst.g.has_edge(e.via2, e.dom));
      }
    }
  }
}

TEST(Differential, Algorithm1AcrossWorkloadFamilies) {
  using geom::WorkloadKind;
  for (const auto kind : {WorkloadKind::kUniform, WorkloadKind::kClustered,
                          WorkloadKind::kPerturbedGrid, WorkloadKind::kRing}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      geom::WorkloadParams params;
      params.kind = kind;
      params.count = 220;
      params.side = 7.0;
      params.seed = seed;
      const auto pts = geom::generate(params);
      const auto g = udg::build_udg(pts);
      if (!graph::is_connected(g)) continue;
      const auto distributed = protocols::run_algorithm1(g);
      core::Algorithm1Options options;
      options.root = distributed.leader;
      const auto central = core::algorithm1(g, options);
      EXPECT_EQ(distributed.wcds.dominators, central.dominators)
          << geom::to_string(kind) << " seed " << seed;
    }
  }
}

TEST(Differential, FacadeMatchesDirectEntrypoints) {
  // core::build() is a pure dispatcher: for every mode its report must be
  // bit-for-bit the corresponding direct entrypoint's output (the runs are
  // deterministic under the unit-delay model).
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto inst = testing::connected_udg(110, 9.0, seed);

    core::BuildOptions options;
    options.algorithm = core::BuildAlgorithm::kAlgorithm1Central;
    const auto f1c = core::build(inst.g, options);
    const auto d1c = core::algorithm1(inst.g);
    EXPECT_EQ(f1c.result.dominators, d1c.dominators) << seed;
    EXPECT_EQ(f1c.result.mask, d1c.mask) << seed;

    options.algorithm = core::BuildAlgorithm::kAlgorithm2Central;
    const auto f2c = core::build(inst.g, options);
    const auto d2c = core::algorithm2(inst.g);
    EXPECT_EQ(f2c.result.dominators, d2c.result.dominators) << seed;
    EXPECT_EQ(f2c.result.additional_dominators,
              d2c.result.additional_dominators)
        << seed;
    EXPECT_EQ(f2c.result.mis_dominators, d2c.result.mis_dominators) << seed;
    EXPECT_EQ(f2c.lists.one_hop_rows, d2c.lists.one_hop_rows) << seed;
    EXPECT_EQ(f2c.lists.two_hop_rows, d2c.lists.two_hop_rows) << seed;
    EXPECT_EQ(f2c.lists.three_hop_rows, d2c.lists.three_hop_rows) << seed;

    options.algorithm = core::BuildAlgorithm::kAlgorithm1Protocol;
    const auto f1p = core::build(inst.g, options);
    const auto d1p = protocols::run_algorithm1(inst.g);
    EXPECT_EQ(f1p.result.dominators, d1p.wcds.dominators) << seed;
    EXPECT_EQ(f1p.leader, d1p.leader) << seed;
    EXPECT_EQ(f1p.levels, d1p.levels) << seed;
    EXPECT_EQ(f1p.stats.transmissions, d1p.stats.transmissions) << seed;
    EXPECT_EQ(f1p.stats.completion_time, d1p.stats.completion_time) << seed;

    options.algorithm = core::BuildAlgorithm::kAlgorithm2Protocol;
    const auto f2p = core::build(inst.g, options);
    const auto d2p = protocols::run_algorithm2(inst.g);
    EXPECT_EQ(f2p.result.dominators, d2p.wcds.dominators) << seed;
    EXPECT_EQ(f2p.result.mis_dominators, d2p.wcds.mis_dominators) << seed;
    EXPECT_EQ(f2p.stats.transmissions, d2p.stats.transmissions) << seed;
    EXPECT_EQ(f2p.stats.completion_time, d2p.stats.completion_time) << seed;
  }
}

TEST(Differential, FacadeMatchesDirectEntrypointsUnderAsyncDelays) {
  // Same dispatcher claim under a seeded random-delay model: the facade must
  // reproduce the direct run exactly because both draw the same delay
  // sequence from the same seed.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto inst = testing::connected_udg(100, 9.0, seed);
    const auto delays = sim::DelayModel::uniform(1, 8, seed * 17 + 5);

    core::BuildOptions options;
    options.algorithm = core::BuildAlgorithm::kAlgorithm1Protocol;
    options.delays = delays;
    const auto f1 = core::build(inst.g, options);
    const auto d1 = protocols::run_algorithm1(inst.g, delays);
    EXPECT_EQ(f1.result.dominators, d1.wcds.dominators) << seed;
    EXPECT_EQ(f1.levels, d1.levels) << seed;
    EXPECT_EQ(f1.stats.transmissions, d1.stats.transmissions) << seed;
    EXPECT_EQ(f1.stats.completion_time, d1.stats.completion_time) << seed;

    options.algorithm = core::BuildAlgorithm::kAlgorithm2Protocol;
    const auto f2 = core::build(inst.g, options);
    const auto d2 = protocols::run_algorithm2(inst.g, delays);
    EXPECT_EQ(f2.result.dominators, d2.wcds.dominators) << seed;
    EXPECT_EQ(f2.stats.transmissions, d2.stats.transmissions) << seed;
    EXPECT_EQ(f2.stats.completion_time, d2.stats.completion_time) << seed;
  }
}

TEST(Differential, ReuseSelectionStillBridgesEverything) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto inst = testing::connected_udg(160, 7.5, seed);
    core::Algorithm2Options options;
    options.selection = core::Algorithm2Options::Selection::kReuseIntermediates;
    const auto out = core::algorithm2(inst.g, options);
    for (NodeId a : out.result.mis_dominators) {
      const auto dist = graph::bfs_distances(inst.g, a);
      for (NodeId b : out.result.mis_dominators) {
        if (b <= a || dist[b] != 3) continue;
        const auto entries = out.lists.three_hop(a);
        EXPECT_TRUE(std::any_of(
            entries.begin(), entries.end(),
            [&](const core::ThreeHopEntry& e) { return e.dom == b; }))
            << seed << ": pair (" << a << ", " << b << ")";
      }
    }
  }
}

}  // namespace
}  // namespace wcds
