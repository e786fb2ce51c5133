#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "geom/workload.h"
#include "graph/bfs.h"
#include "udg/udg.h"

namespace wcds::udg {
namespace {

TEST(Udg, EmptyAndSingle) {
  const std::vector<geom::Point> none;
  EXPECT_EQ(build_udg(none).node_count(), 0u);
  const std::vector<geom::Point> one{{1.0, 2.0}};
  const auto g = build_udg(one);
  EXPECT_EQ(g.node_count(), 1u);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Udg, RangeIsInclusive) {
  const std::vector<geom::Point> pts{{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}};
  const auto g = build_udg(pts);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(Udg, CustomRange) {
  const std::vector<geom::Point> pts{{0.0, 0.0}, {1.5, 0.0}};
  EXPECT_EQ(build_udg(pts, 1.0).edge_count(), 0u);
  EXPECT_EQ(build_udg(pts, 2.0).edge_count(), 1u);
}

TEST(Udg, RejectsNonPositiveRange) {
  const std::vector<geom::Point> pts{{0.0, 0.0}};
  EXPECT_THROW(build_udg(pts, 0.0), std::invalid_argument);
  EXPECT_THROW(build_udg_reference(pts, -1.0), std::invalid_argument);
}

// A coordinate whose grid cell has no int32 index (NaN, +-inf, or merely
// huge) is rejected with a named error instead of an undefined cast.
TEST(Udg, RejectsNonFiniteAndHugeCoordinates) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const geom::Point bad :
       {geom::Point{kNaN, 0.0}, geom::Point{0.0, kNaN}, geom::Point{kInf, 0.0},
        geom::Point{0.0, -kInf}, geom::Point{1e300, 0.0},
        geom::Point{0.0, -1e300}}) {
    const std::vector<geom::Point> pts{{0.0, 0.0}, bad, {0.5, 0.0}};
    try {
      (void)build_udg(pts);
      ADD_FAILURE() << "accepted (" << bad.x << ", " << bad.y << ")";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("node 1"), std::string::npos)
          << e.what();
    }
  }
  // A tiny range pushes ordinary coordinates off the grid too.
  const std::vector<geom::Point> pts{{0.0, 0.0}, {10.0, 0.0}};
  EXPECT_THROW((void)build_udg(pts, 1e-9), std::invalid_argument);
  // Far, but inside the grid, is fine.
  const std::vector<geom::Point> far{{2e9, -2e9}, {2e9, -2e9 + 0.5}};
  EXPECT_EQ(build_udg(far).edge_count(), 1u);
}

TEST(Udg, NegativeCoordinatesHandledByGrid) {
  const std::vector<geom::Point> pts{
      {-0.3, -0.3}, {0.3, 0.3}, {-1.2, -1.2}, {5.0, 5.0}};
  const auto grid = build_udg(pts);
  const auto ref = build_udg_reference(pts);
  EXPECT_EQ(grid.edges(), ref.edges());
  EXPECT_TRUE(grid.has_edge(0, 1));
  EXPECT_FALSE(grid.has_edge(0, 3));
}

// The grid builder must agree with the O(n^2) oracle on every workload kind.
class UdgEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<geom::WorkloadKind, std::uint64_t>> {};

TEST_P(UdgEquivalenceTest, GridMatchesReference) {
  const auto [kind, seed] = GetParam();
  geom::WorkloadParams params;
  params.kind = kind;
  params.count = 400;
  params.side = 9.0;
  params.seed = seed;
  const auto pts = geom::generate(params);
  const auto grid = build_udg(pts);
  const auto ref = build_udg_reference(pts);
  ASSERT_EQ(grid.node_count(), ref.node_count());
  EXPECT_EQ(grid.edges(), ref.edges());
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, UdgEquivalenceTest,
    ::testing::Combine(::testing::Values(geom::WorkloadKind::kUniform,
                                         geom::WorkloadKind::kClustered,
                                         geom::WorkloadKind::kPerturbedGrid,
                                         geom::WorkloadKind::kCorridor,
                                         geom::WorkloadKind::kRing),
                       ::testing::Values(1u, 2u, 3u)));

TEST(Udg, AnalyzeStats) {
  const std::vector<geom::Point> pts{
      {0.0, 0.0}, {0.5, 0.0}, {1.0, 0.0}, {9.0, 9.0}};
  const auto g = build_udg(pts);
  const auto stats = analyze(g);
  EXPECT_EQ(stats.nodes, 4u);
  EXPECT_EQ(stats.edges, 3u);  // 0-1, 1-2, 0-2
  EXPECT_EQ(stats.max_degree, 2u);
  EXPECT_EQ(stats.components, 2u);
}

TEST(Udg, DenserWorkloadHasMoreEdges) {
  const auto sparse = geom::uniform_square(500, 20.0, 7);
  const auto dense = geom::uniform_square(500, 10.0, 7);
  EXPECT_GT(build_udg(dense).edge_count(), build_udg(sparse).edge_count());
}

}  // namespace
}  // namespace wcds::udg
