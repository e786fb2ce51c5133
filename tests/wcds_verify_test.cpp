#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "graph/subgraph.h"
#include "test_util.h"
#include "wcds/verify.h"

namespace wcds::core {
namespace {

using graph::from_edges;
using graph::Graph;

TEST(WeaklyConnected, Figure2Example) {
  // The paper's Figure 2: nodes 1 and 2 form the WCDS and the black edges
  // weakly induce a connected subgraph.
  const Graph g = testing::figure2_graph();
  std::vector<bool> s(9, false);
  s[1] = s[2] = true;
  EXPECT_TRUE(is_dominating(g, s));
  EXPECT_TRUE(is_weakly_connected(g, s));
  EXPECT_TRUE(is_wcds(g, s));
  EXPECT_TRUE(is_cds(g, s));  // 1-2 adjacent, so also a CDS here
}

TEST(WeaklyConnected, WcdsThatIsNotCds) {
  // Path 0-1-2-3-4 with S = {0, 2, 4}: dominating, weakly connected (every
  // edge touches S), but G[S] has no edges at all.
  const Graph g = from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  std::vector<bool> s(5, false);
  s[0] = s[2] = s[4] = true;
  EXPECT_TRUE(is_wcds(g, s));
  EXPECT_FALSE(is_cds(g, s));
}

TEST(WeaklyConnected, DominatingButWeaklyDisconnected) {
  // Two stars joined by a 3-hop bridge of gray nodes: centers dominate, but
  // the middle edge (2,3) has no endpoint in S, so G' splits.
  //   0 - 1 - 2 - 3 - 4 - 5   with S = {1, 4}?  edges (2,3) white.
  // S={1,4} dominates 0,1,2 and 3,4,5.  Weakly induced: (0,1),(1,2),(3,4),
  // (4,5) - edge (2,3) missing -> disconnected.
  const Graph g = from_edges(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  std::vector<bool> s(6, false);
  s[1] = s[4] = true;
  EXPECT_TRUE(is_dominating(g, s));
  EXPECT_FALSE(is_weakly_connected(g, s));
  EXPECT_FALSE(is_wcds(g, s));
}

TEST(WeaklyConnected, NotDominating) {
  const Graph g = from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  std::vector<bool> s(4, false);
  s[0] = true;
  EXPECT_FALSE(is_wcds(g, s));
}

TEST(WeaklyConnected, SingleNodeGraph) {
  graph::GraphBuilder b(1);
  const Graph g = std::move(b).build();
  std::vector<bool> s{true};
  EXPECT_TRUE(is_wcds(g, s));
  EXPECT_TRUE(is_cds(g, s));
}

TEST(WeaklyConnected, WholeVertexSetOfConnectedGraph) {
  const auto inst = testing::connected_udg(150, 8.0, 3);
  std::vector<bool> all(inst.g.node_count(), true);
  EXPECT_TRUE(is_wcds(inst.g, all));
  EXPECT_TRUE(is_cds(inst.g, all));
}

TEST(WeaklyConnected, DisconnectedGraphIsNeverWeaklyConnected) {
  // Judged over all of V: each path is dominated and weakly connected on its
  // own, but g (and so the weakly induced subgraph) has two components.
  const Graph g = from_edges(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  std::vector<bool> s(6, false);
  s[1] = s[4] = true;
  EXPECT_TRUE(is_dominating(g, s));
  EXPECT_FALSE(is_weakly_connected(g, s));
  EXPECT_FALSE(is_wcds(g, s));
}

TEST(WeaklyConnected, ShortMasksThrow) {
  // A mask shorter than the node count used to be read past its end.
  const Graph g = from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  const std::vector<bool> s{true, false};
  EXPECT_THROW((void)is_dominating(g, s), std::invalid_argument);
  EXPECT_THROW((void)is_weakly_connected(g, s), std::invalid_argument);
  EXPECT_THROW((void)is_wcds(g, s), std::invalid_argument);
  EXPECT_THROW((void)is_cds(g, s), std::invalid_argument);
}

TEST(ExtractSpanner, KeepsExactlyIncidentEdges) {
  const Graph g = testing::figure2_graph();
  WcdsResult result;
  result.mask.assign(9, false);
  result.mask[1] = result.mask[2] = true;
  result.dominators = {1, 2};
  result.mis_dominators = {1, 2};
  result.color.assign(9, NodeColor::kGray);
  result.color[1] = result.color[2] = NodeColor::kBlack;
  const Graph spanner = extract_spanner(g, result);
  // Every edge of figure2_graph touches node 1 or 2, so nothing is dropped.
  EXPECT_EQ(spanner.edge_count(), g.edge_count());
}

TEST(AuditResult, AcceptsConsistentResult) {
  const Graph g = from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  WcdsResult r;
  r.mask = {true, false, true, false, true};
  r.dominators = {0, 2, 4};
  r.mis_dominators = {0, 2, 4};
  r.color = {NodeColor::kBlack, NodeColor::kGray, NodeColor::kBlack,
             NodeColor::kGray, NodeColor::kBlack};
  EXPECT_TRUE(audit_result(g, r));
}

TEST(AuditResult, RejectsColorMismatch) {
  const Graph g = from_edges(3, {{0, 1}, {1, 2}});
  WcdsResult r;
  r.mask = {false, true, false};
  r.dominators = {1};
  r.mis_dominators = {1};
  r.color = {NodeColor::kGray, NodeColor::kGray, NodeColor::kGray};  // wrong
  EXPECT_FALSE(audit_result(g, r));
}

TEST(AuditResult, RejectsBadPartition) {
  const Graph g = from_edges(3, {{0, 1}, {1, 2}});
  WcdsResult r;
  r.mask = {false, true, false};
  r.dominators = {1};
  r.mis_dominators = {};  // dominator 1 unaccounted for
  r.color = {NodeColor::kGray, NodeColor::kBlack, NodeColor::kGray};
  EXPECT_FALSE(audit_result(g, r));
}

TEST(AuditResult, RejectsNonWcds) {
  const Graph g = from_edges(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  WcdsResult r;
  r.mask = {false, true, false, false, true, false};
  r.dominators = {1, 4};
  r.mis_dominators = {1, 4};
  r.color.assign(6, NodeColor::kGray);
  r.color[1] = r.color[4] = NodeColor::kBlack;
  EXPECT_FALSE(audit_result(g, r));  // weakly disconnected (see above)
}

}  // namespace
}  // namespace wcds::core
