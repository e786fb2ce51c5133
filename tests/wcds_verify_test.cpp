#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "graph/subgraph.h"
#include "test_util.h"
#include "wcds/verify.h"
#include "wcds/wcds_result.h"

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
  EXPECT_TRUE(audit_result(g, r));
}

TEST(AuditResult, RejectsBadPartition) {
  const Graph g = from_edges(3, {{0, 1}, {1, 2}});
  WcdsResult r;
  r.mask = {false, true, false};
  r.dominators = {1};
  r.mis_dominators = {};  // dominator 1 unaccounted for
  EXPECT_FALSE(audit_result(g, r));
}

TEST(AuditResult, RejectsNonWcds) {
  const Graph g = from_edges(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  WcdsResult r;
  r.mask = {false, true, false, false, true, false};
  r.dominators = {1, 4};
  r.mis_dominators = {1, 4};
  EXPECT_FALSE(audit_result(g, r));  // weakly disconnected (see above)
}

TEST(WcdsResultFromMembers, MergesTheListsAndDerivesTheMask) {
  const WcdsResult r = WcdsResult::from_members(8, {1, 4, 6}, {0, 5});
  EXPECT_EQ(r.dominators, (std::vector<NodeId>{0, 1, 4, 5, 6}));
  EXPECT_EQ(r.mis_dominators, (std::vector<NodeId>{1, 4, 6}));
  EXPECT_EQ(r.additional_dominators, (std::vector<NodeId>{0, 5}));
  EXPECT_EQ(r.mask, (std::vector<bool>{true, true, false, false, true, true,
                                        true, false}));
  EXPECT_EQ(r.size(), 5u);

  // Either list may be empty: greedy baselines carry no MIS.
  const WcdsResult greedy = WcdsResult::from_members(3, {}, {1});
  EXPECT_EQ(greedy.dominators, (std::vector<NodeId>{1}));
  EXPECT_TRUE(greedy.mis_dominators.empty());
  EXPECT_EQ(greedy.mask, (std::vector<bool>{false, true, false}));
  EXPECT_EQ(WcdsResult::from_members(2, {}, {}).mask,
            std::vector<bool>(2, false));

  // A path 0..4 with S = {0, 2, 4}: the assembled record passes the
  // consistency audit as is.
  const Graph g = from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  EXPECT_TRUE(audit_result(g, WcdsResult::from_members(5, {0, 2, 4}, {})));
}

TEST(WcdsResultFromMembers, RejectsMalformedLists) {
  // Unsorted, in either list.
  EXPECT_THROW((void)WcdsResult::from_members(5, {2, 1}, {}),
               std::invalid_argument);
  EXPECT_THROW((void)WcdsResult::from_members(5, {0}, {3, 2}),
               std::invalid_argument);
  // A duplicate within one list.
  EXPECT_THROW((void)WcdsResult::from_members(5, {1, 1}, {}),
               std::invalid_argument);
  EXPECT_THROW((void)WcdsResult::from_members(5, {}, {2, 2}),
               std::invalid_argument);
  // An id in both lists.
  EXPECT_THROW((void)WcdsResult::from_members(5, {1, 3}, {3}),
               std::invalid_argument);
  // An id >= n, in either list.
  EXPECT_THROW((void)WcdsResult::from_members(5, {5}, {}),
               std::invalid_argument);
  EXPECT_THROW((void)WcdsResult::from_members(5, {0}, {kInvalidNode}),
               std::invalid_argument);
  EXPECT_THROW((void)WcdsResult::from_members(0, {0}, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace wcds::core
