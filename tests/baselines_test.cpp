#include <gtest/gtest.h>

#include "baselines/exact.h"
#include "baselines/greedy_cds.h"
#include "baselines/greedy_wcds.h"
#include "baselines/mis_tree_cds.h"
#include "check/audit.h"
#include "facade/build.h"
#include "mis/mis.h"
#include "test_util.h"
#include "wcds/verify.h"

namespace wcds::baselines {
namespace {

TEST(GreedyWcds, RejectsBadInput) {
  graph::GraphBuilder empty(0);
  EXPECT_THROW(greedy_wcds(std::move(empty).build()), std::invalid_argument);
  const auto disconnected = graph::from_edges(4, {{0, 1}, {2, 3}});
  EXPECT_THROW(greedy_wcds(disconnected), std::invalid_argument);
}

TEST(GreedyWcds, StarPicksCenterOnly) {
  const auto g = graph::from_edges(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  const auto r = greedy_wcds(g);
  EXPECT_EQ(r.dominators, std::vector<NodeId>{0});
  EXPECT_TRUE(core::is_wcds(g, r.mask));
}

TEST(GreedyWcds, SingleNode) {
  graph::GraphBuilder b(1);
  const auto r = greedy_wcds(std::move(b).build());
  EXPECT_EQ(r.dominators, std::vector<NodeId>{0});
}

TEST(GreedyWcds, AlwaysProducesWcds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto inst = testing::connected_udg(220, 9.0, seed);
    const auto r = greedy_wcds(inst.g);
    EXPECT_TRUE(core::is_wcds(inst.g, r.mask)) << seed;
  }
}

TEST(GreedyCds, StarPicksCenterOnly) {
  const auto g = graph::from_edges(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  const auto r = greedy_cds(g);
  EXPECT_EQ(r.dominators, std::vector<NodeId>{0});
}

TEST(GreedyCds, AlwaysProducesCds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto inst = testing::connected_udg(220, 9.0, seed);
    const auto r = greedy_cds(inst.g);
    EXPECT_TRUE(core::is_cds(inst.g, r.mask)) << seed;
  }
}

TEST(GreedyCds, PathNeedsAllInteriorNodes) {
  const auto g = graph::from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const auto r = greedy_cds(g);
  EXPECT_EQ(r.dominators, (std::vector<NodeId>{1, 2, 3}));
}

// The greedy baselines build no MIS: every member is an additional
// dominator, so the auditor runs the Section 1 and consistency families on
// them and skips the MIS ones.
TEST(GreedyBaselines, CarryNoMisAndPassTheAudit) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto inst = testing::connected_udg(200, 10.0, seed);
    for (const auto& r : {greedy_wcds(inst.g), greedy_cds(inst.g)}) {
      EXPECT_TRUE(r.mis_dominators.empty()) << seed;
      EXPECT_EQ(r.additional_dominators, r.dominators) << seed;
      EXPECT_NO_THROW(check::audit_invariants(inst.g, r)) << seed;
    }
  }
}

TEST(MisTreeCds, RejectsBadInput) {
  graph::GraphBuilder empty(0);
  EXPECT_THROW(mis_tree_cds(std::move(empty).build()), std::invalid_argument);
  const auto disconnected = graph::from_edges(4, {{0, 1}, {2, 3}});
  EXPECT_THROW(mis_tree_cds(disconnected), std::invalid_argument);
}

TEST(MisTreeCds, SingleNodeAndStar) {
  graph::GraphBuilder b(1);
  EXPECT_EQ(mis_tree_cds(std::move(b).build()).dominators,
            std::vector<NodeId>{0});
  const auto star = graph::from_edges(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  EXPECT_EQ(mis_tree_cds(star).dominators, std::vector<NodeId>{0});
}

TEST(MisTreeCds, PathGraphConnectsMisWithConnectors) {
  // MIS {0, 2, 4}; H_3 tree edges (0,2) and (2,4) each add one connector.
  const auto g = graph::from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const auto r = mis_tree_cds(g);
  EXPECT_EQ(r.mis_dominators, (std::vector<NodeId>{0, 2, 4}));
  EXPECT_EQ(r.additional_dominators, (std::vector<NodeId>{1, 3}));
  EXPECT_TRUE(core::is_cds(g, r.mask));
}

TEST(MisTreeCds, AlwaysProducesCdsWithBoundedSize) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto inst = testing::connected_udg(220, 9.0, seed);
    const auto r = mis_tree_cds(inst.g);
    EXPECT_TRUE(core::is_cds(inst.g, r.mask)) << seed;
    // |CDS| <= |MIS| + 2(|MIS| - 1): one or two connectors per tree edge.
    const std::size_t m = r.mis_dominators.size();
    EXPECT_LE(r.dominators.size(), 3 * m - 2);
  }
}

TEST(Exact, TinyKnownOptima) {
  // Path of 5: MWCDS is {1, 3} (dominates all; edges (0,1),(1,2),(2,3),(3,4)
  // all touch it -> weakly connected).  MCDS is {1, 2, 3}.
  const auto g = graph::from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const auto wcds = exact_min_wcds(g);
  ASSERT_TRUE(wcds.has_value());
  EXPECT_TRUE(wcds->proven_optimal);
  EXPECT_EQ(wcds->members.size(), 2u);
  EXPECT_TRUE(core::is_wcds(g, graph::make_mask(5, wcds->members)));

  const auto cds = exact_min_cds(g);
  ASSERT_TRUE(cds.has_value());
  EXPECT_EQ(cds->members.size(), 3u);
  EXPECT_TRUE(core::is_cds(g, graph::make_mask(5, cds->members)));
}

TEST(Exact, WcdsNeverLargerThanCds) {
  // |MWCDS| <= |MCDS| (the paper's relaxation argument).
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto inst = testing::connected_udg(15, 5.0, seed);
    const auto wcds = exact_min_wcds(inst.g);
    const auto cds = exact_min_cds(inst.g);
    ASSERT_TRUE(wcds.has_value());
    ASSERT_TRUE(cds.has_value());
    EXPECT_LE(wcds->members.size(), cds->members.size());
  }
}

TEST(Exact, MatchesBruteForceOnVerySmallGraphs) {
  // Brute force over all subsets for n <= 10 and compare minimum sizes.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto inst = testing::connected_udg(9, 4.0, seed);
    const std::size_t n = inst.g.node_count();
    std::size_t brute = n;
    for (std::uint32_t bits = 1; bits < (1u << n); ++bits) {
      std::vector<bool> mask(n, false);
      std::size_t size = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (bits & (1u << i)) {
          mask[i] = true;
          ++size;
        }
      }
      if (size < brute && core::is_wcds(inst.g, mask)) brute = size;
    }
    const auto exact = exact_min_wcds(inst.g);
    ASSERT_TRUE(exact.has_value());
    EXPECT_EQ(exact->members.size(), brute) << "seed " << seed;
  }
}

TEST(Exact, DisconnectedReturnsNullopt) {
  const auto g = graph::from_edges(4, {{0, 1}, {2, 3}});
  EXPECT_FALSE(exact_min_wcds(g).has_value());
}

TEST(Exact, SingleNode) {
  graph::GraphBuilder b(1);
  const auto r = exact_min_wcds(std::move(b).build());
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->members, std::vector<NodeId>{0});
}

TEST(Exact, MaxSizeHintRespected) {
  // A 9-node star chain needing 3 dominators cannot be solved with max 1.
  const auto g = graph::from_edges(
      7, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}});
  ExactOptions options;
  options.max_size = 1;
  EXPECT_FALSE(exact_min_wcds(g, options).has_value());
}

TEST(Bounds, DominationLowerBound) {
  const auto star = graph::from_edges(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  EXPECT_EQ(domination_lower_bound(star), 1u);
  const auto path = graph::from_edges(7, {{0, 1}, {1, 2}, {2, 3}, {3, 4},
                                          {4, 5}, {5, 6}});
  EXPECT_EQ(domination_lower_bound(path), 3u);  // ceil(7/3)
}

TEST(Bounds, UdgMwcdsLowerBound) {
  EXPECT_EQ(udg_mwcds_lower_bound(0), 0u);
  EXPECT_EQ(udg_mwcds_lower_bound(1), 1u);
  EXPECT_EQ(udg_mwcds_lower_bound(5), 1u);
  EXPECT_EQ(udg_mwcds_lower_bound(6), 2u);
  EXPECT_EQ(udg_mwcds_lower_bound(11), 3u);
}

TEST(Bounds, UdgMwcdsLowerBoundMFold) {
  // opt_m >= ceil(m * |MIS| / 5): each MIS node needs m coverage incidences
  // and every dominator supplies at most 5 of them.
  EXPECT_EQ(udg_mwcds_lower_bound(0, 3), 0u);
  EXPECT_EQ(udg_mwcds_lower_bound(1, 2), 1u);
  EXPECT_EQ(udg_mwcds_lower_bound(5, 2), 2u);   // ceil(10/5)
  EXPECT_EQ(udg_mwcds_lower_bound(6, 2), 3u);   // ceil(12/5)
  EXPECT_EQ(udg_mwcds_lower_bound(11, 3), 7u);  // ceil(33/5)
  // m = 1 reproduces the plain bound; the bound grows monotonically in m.
  for (std::size_t mis = 0; mis <= 12; ++mis) {
    EXPECT_EQ(udg_mwcds_lower_bound(mis, 1), udg_mwcds_lower_bound(mis));
    for (std::size_t m = 2; m <= 4; ++m) {
      EXPECT_GE(udg_mwcds_lower_bound(mis, m),
                udg_mwcds_lower_bound(mis, m - 1));
    }
  }
}

TEST(Bounds, MFoldLowerBoundNeverExceedsResilientConstruction) {
  // The (1,m) construction is an m-fold dominating WCDS, so its size is an
  // upper bound witness for the m-fold lower bound.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto inst = testing::connected_udg(60, 8.0, seed);
    for (const std::uint32_t m : {2u, 3u}) {
      core::BuildOptions options;
      options.resilience = core::ResilienceSpec{1, m};
      const auto report = core::build(inst.g, options);
      EXPECT_LE(udg_mwcds_lower_bound(report.result.mis_dominators.size(), m),
                report.result.size())
          << "seed " << seed << " m " << m;
    }
  }
}

TEST(Bounds, LowerBoundsNeverExceedExact) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto inst = testing::connected_udg(14, 5.0, seed);
    const auto exact = exact_min_wcds(inst.g);
    ASSERT_TRUE(exact.has_value());
    const auto mis = mis::greedy_mis_by_id(inst.g);
    EXPECT_LE(udg_mwcds_lower_bound(mis.size()), exact->members.size());
  }
}

}  // namespace
}  // namespace wcds::baselines
