// The router's next-clusterhead rule against the first-hop BFS it replaced
// (serving_reference.h): for every ordered head pair, next_head_index,
// next_clusterhead, overlay_distance and route() must give what the old
// h x h next-hop table gave.  Covered: central builds under both
// additional-dominator selection rules and protocol builds under unit and
// uniform random delays, at n = 512 and 2048.  The distance table alone is
// also checked where its bit-parallel build has edges: more heads than one
// 256-source pass and not a multiple of it, several overlay components, and
// a single head.  A hand-made one-directional 3-hop entry must make the
// router constructor throw, since the rule reads distances to a head off
// that head's own row.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "facade/build.h"
#include "graph/flat_rows.h"
#include "routing/clusterhead_routing.h"
#include "serving_reference.h"
#include "sim/runtime.h"
#include "test_util.h"
#include "udg/udg.h"
#include "wcds/algorithm2.h"

namespace wcds::routing {
namespace {

constexpr std::uint32_t kNoHead = 0xFFFFFFFFu;

struct Mode {
  const char* name;
  core::BuildOptions options;
};

std::vector<Mode> modes() {
  using Selection = core::Algorithm2Options::Selection;
  std::vector<Mode> out;
  core::BuildOptions o;
  o.algorithm = core::BuildAlgorithm::kAlgorithm2Central;
  o.selection = Selection::kLexSmallestPair;
  out.push_back({"central/lex", o});
  o.selection = Selection::kReuseIntermediates;
  out.push_back({"central/reuse", o});
  o = {};
  o.algorithm = core::BuildAlgorithm::kAlgorithm2Protocol;
  o.threads = 1;
  out.push_back({"protocol/unit", o});
  o.delays = sim::DelayModel::uniform(1, 6, 17);
  out.push_back({"protocol/uniform", o});
  return out;
}

// What route() returned when it walked the old next-hop table.
std::vector<NodeId> reference_route(const ClusterheadRouter& router,
                                    const std::vector<std::uint32_t>& next,
                                    std::uint32_t a, std::uint32_t b) {
  const auto heads = router.heads();
  const std::size_t h = heads.size();
  std::vector<NodeId> path{heads[a]};
  for (std::uint32_t at = a; at != b;) {
    const std::uint32_t step = next[at * h + b];
    if (step == kNoHead) return path;
    const ClusterheadRouter::Leg leg = router.leg(at, step);
    path.push_back(leg.via1);
    if (leg.via2 != kInvalidNode) path.push_back(leg.via2);
    path.push_back(heads[step]);
    at = step;
  }
  return path;
}

void expect_matches_reference(const graph::Graph& g,
                              core::Algorithm2View view,
                              const std::string& cell) {
  const ClusterheadRouter router(g, view);
  const auto heads = router.heads();
  const std::size_t h = heads.size();
  ASSERT_GT(h, 1u) << cell;
  const testing::ReferenceTables ref = testing::reference_tables(router);
  std::size_t mismatches = 0;
  std::size_t multi_hop = 0;
  for (std::uint32_t a = 0; a < h; ++a) {
    const auto dist = router.distance_row(a);
    for (std::uint32_t b = 0; b < h; ++b) {
      const std::uint32_t want = ref.next[a * h + b];
      const NodeId want_head =
          a == b ? heads[a] : want == kNoHead ? kInvalidNode : heads[want];
      const Route r = router.route(heads[a], heads[b]);
      const bool ok = router.next_head_index(a, b) == want &&
                      router.next_clusterhead(heads[a], heads[b]) ==
                          want_head &&
                      dist[b] == ref.dist[a * h + b] &&
                      r.path == reference_route(router, ref.next, a, b) &&
                      r.delivered == (ref.dist[a * h + b] !=
                                      ClusterheadRouter::kUnreachableDistance);
      if (!ok && ++mismatches <= 5) {
        ADD_FAILURE() << cell << ": heads " << heads[a] << " -> " << heads[b]
                      << " next " << router.next_head_index(a, b)
                      << " want " << want;
      }
      if (ref.dist[a * h + b] >= 2 &&
          ref.dist[a * h + b] != ClusterheadRouter::kUnreachableDistance) {
        ++multi_hop;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << cell;
  EXPECT_GT(multi_hop, h) << cell;  // the rule is exercised past one hop
}

TEST(RouterDifferential, NextHopMatchesFirstHopBfsOnEveryHeadPair) {
  for (const std::uint32_t n : {512u, 2048u}) {
    const testing::Instance inst = testing::connected_udg(n, 12.0, n + 5);
    for (const Mode& mode : modes()) {
      const core::BuildReport report = core::build(inst.g, mode.options);
      std::ostringstream cell;
      cell << 'n' << n << '/' << mode.name;
      expect_matches_reference(inst.g, report.algorithm2_view(), cell.str());
    }
  }
}

// Every distance_row entry against the reference BFS.  Returns the number
// of overlay components, counted from the reference's unreachable entries.
std::size_t expect_distances_match_reference(const graph::Graph& g,
                                             core::Algorithm2View view,
                                             const std::string& cell) {
  const ClusterheadRouter router(g, view);
  const std::size_t h = router.heads().size();
  const testing::ReferenceTables ref = testing::reference_tables(router);
  std::size_t mismatches = 0;
  std::size_t components = 0;
  for (std::uint32_t a = 0; a < h; ++a) {
    const auto dist = router.distance_row(a);
    bool first_of_component = true;
    for (std::uint32_t b = 0; b < h; ++b) {
      const std::uint16_t want = ref.dist[a * h + b];
      if (b < a && want != ClusterheadRouter::kUnreachableDistance) {
        first_of_component = false;
      }
      if (dist[b] != want && ++mismatches <= 5) {
        ADD_FAILURE() << cell << ": d(" << a << ", " << b << ") = " << dist[b]
                      << ", want " << want;
      }
    }
    if (first_of_component) ++components;
  }
  EXPECT_EQ(mismatches, 0u) << cell;
  return components;
}

TEST(RouterDifferential, DistancesMatchAcrossSeveralSourcePasses) {
  const testing::Instance inst = testing::connected_udg(8192, 16.0, 3);
  const core::Algorithm2Output out = core::algorithm2(inst.g);
  const std::size_t h = out.result.mis_dominators.size();
  ASSERT_GT(h, 256u);
  ASSERT_NE(h % 256, 0u);  // the last pass is a partial one
  EXPECT_EQ(expect_distances_match_reference(inst.g, out, "n8192/central"),
            1u);
}

TEST(RouterDifferential, DistancesStayUnreachableAcrossComponents) {
  // Three disjoint connected deployments side by side, far out of range of
  // each other, built by the sharded Algorithm II protocol.
  std::vector<geom::Point> points;
  double offset = 0.0;
  for (const std::uint32_t n : {300u, 500u, 200u}) {
    const testing::Instance part = testing::connected_udg(n, 12.0, n);
    double width = 0.0;
    for (const geom::Point& p : part.points) {
      points.push_back({p.x + offset, p.y});
      width = std::max(width, p.x);
    }
    offset += width + 5.0;
  }
  const graph::Graph g = udg::build_udg(points);
  core::BuildOptions options;
  options.algorithm = core::BuildAlgorithm::kAlgorithm2Protocol;
  options.threads = 1;
  const core::BuildReport report = core::build(g, options);
  EXPECT_EQ(expect_distances_match_reference(g, report.algorithm2_view(),
                                             "three components/protocol"),
            3u);
}

TEST(RouterDifferential, DistancesOfASingleHead) {
  // Five nodes within range of each other: the MIS is node 0 alone.
  std::vector<geom::Point> points;
  for (int i = 0; i < 5; ++i) points.push_back({0.1 * i, 0.05 * i});
  const graph::Graph g = udg::build_udg(points);
  const core::Algorithm2Output out = core::algorithm2(g);
  ASSERT_EQ(out.result.mis_dominators.size(), 1u);
  EXPECT_EQ(expect_distances_match_reference(g, out, "one head"), 1u);
}

TEST(RouterDifferential, OneWayOverlayEdgeIsRejected) {
  const testing::Instance inst = testing::connected_udg(300, 10.0, 4);
  const core::Algorithm2Output out = core::algorithm2(inst.g);
  const ClusterheadRouter router(inst.g, out);
  const auto heads = router.heads();
  ASSERT_GT(heads.size(), 2u);

  // A head c that is not an overlay neighbor of heads[0].
  std::vector<bool> neighbor(heads.size(), false);
  neighbor[0] = true;
  for (const auto& e : router.overlay_row(0)) neighbor[e.to] = true;
  std::uint32_t c = 0;
  while (c < heads.size() && neighbor[c]) ++c;
  ASSERT_LT(c, heads.size());

  // heads[0] learns a 3-hop entry toward heads[c]; heads[c] never hears of
  // it.  The intermediates are irrelevant to the symmetry check.
  core::Algorithm2Output bad = out;
  graph::FlatRows<core::ThreeHopEntry> rows;
  rows.reset(inst.g.node_count(), out.lists.three_hop_rows.entry_count() + 1);
  for (NodeId u = 0; u < inst.g.node_count(); ++u) {
    for (const core::ThreeHopEntry& e : out.lists.three_hop(u)) {
      rows.push_back(e);
    }
    if (u == heads[0]) {
      const NodeId via = inst.g.neighbors(u).front();
      rows.push_back({heads[c], via, via});
    }
    rows.close_row();
  }
  bad.lists.three_hop_rows = std::move(rows);
  EXPECT_THROW(ClusterheadRouter(inst.g, bad), std::invalid_argument);
}

}  // namespace
}  // namespace wcds::routing
