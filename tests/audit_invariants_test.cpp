// Paper-invariant auditor: positive runs over real constructions, then one
// seeded corruption per invariant, each required to fail through the check
// layer with a message naming the violated lemma/theorem.  audit_result must
// reject the same structural corruptions it has always covered.
#include "check/audit.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/check.h"
#include "facade/build.h"
#include "graph/graph.h"
#include "sole_bridge.h"
#include "test_util.h"
#include "wcds/algorithm1.h"
#include "wcds/algorithm2.h"
#include "wcds/verify.h"
#include "wcds/wcds_result.h"

namespace wcds {
namespace {

using check::AuditOptions;
using check::CheckError;
using core::WcdsResult;

// Asserts the audit rejects (g, result) and that the failure message names
// `invariant`.
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

// A valid Algorithm II result to corrupt.
struct Fixture {
  wcds::testing::Instance inst = wcds::testing::connected_udg(60, 8.0, 7);
  WcdsResult result = core::algorithm2(inst.g).result;
};

TEST(AuditInvariants, AcceptsAlgorithm1AndAlgorithm2Results) {
  const auto inst = wcds::testing::connected_udg(80, 9.0, 11);
  AuditOptions unit_disk_options;
  unit_disk_options.unit_disk = true;
  unit_disk_options.check_dilation = true;

  const auto a2 = core::algorithm2(inst.g);
  EXPECT_TRUE(core::audit_result(inst.g, a2.result));
  EXPECT_NO_THROW(check::audit_invariants(inst.g, a2.result, unit_disk_options));

  // Theorem 11 is proven for Algorithm II only; Algorithm I's spanner has no
  // per-pair dilation guarantee (no 3-hop bridges), so no check_dilation here.
  AuditOptions level_options;
  level_options.unit_disk = true;
  level_options.level_ranked = true;
  const auto a1 = core::algorithm1(inst.g);
  EXPECT_TRUE(core::audit_result(inst.g, a1));
  EXPECT_NO_THROW(check::audit_invariants(inst.g, a1, level_options));
}

TEST(AuditInvariants, RejectsMaskMembershipCorruption) {
  Fixture f;
  // Knock a dominator out of the mask.
  const NodeId victim = f.result.dominators.front();
  f.result.mask[victim] = false;
  EXPECT_FALSE(core::audit_result(f.inst.g, f.result));
  ExpectAuditFailure(f.inst.g, f.result, {}, "cardinality");
}

TEST(AuditInvariants, RejectsUnsortedDominators) {
  Fixture f;
  ASSERT_GE(f.result.dominators.size(), 2u);
  std::swap(f.result.dominators.front(), f.result.dominators.back());
  EXPECT_FALSE(core::audit_result(f.inst.g, f.result));
  ExpectAuditFailure(f.inst.g, f.result, {}, "ascending");
}

TEST(AuditInvariants, RejectsBrokenPartition) {
  Fixture f;
  // Drop an MIS dominator from the partition but keep it everywhere else.
  ASSERT_FALSE(f.result.mis_dominators.empty());
  f.result.mis_dominators.erase(f.result.mis_dominators.begin());
  EXPECT_FALSE(core::audit_result(f.inst.g, f.result));
  ExpectAuditFailure(f.inst.g, f.result, {}, "partition");
}

TEST(AuditInvariants, RejectsDominationLoss) {
  // Star: center 0 dominates leaves; remove it from the set entirely.
  const auto g = graph::from_edges(4, {{0, 1}, {0, 2}, {0, 3}});
  WcdsResult result;
  result.mask.assign(4, false);
  result.mask[1] = true;
  result.dominators = {1};
  result.mis_dominators = {1};
  EXPECT_FALSE(core::audit_result(g, result));
  ExpectAuditFailure(g, result, {}, "Section 1 (domination)");
}

TEST(AuditInvariants, RejectsWeakDisconnection) {
  // Path 0-1-2-3-4-5-6: {0, 3, 6} dominates but edges 1-2 and 4-5 have no
  // black endpoint, so the weakly induced subgraph splits.
  const auto g = graph::from_edges(
      7, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}});
  WcdsResult result;
  result.mask.assign(7, false);
  for (NodeId u : {NodeId{0}, NodeId{3}, NodeId{6}}) {
    result.mask[u] = true;
    result.dominators.push_back(u);
    result.mis_dominators.push_back(u);
  }
  EXPECT_FALSE(core::audit_result(g, result));
  ExpectAuditFailure(g, result, {}, "Section 1 (weak connectivity)");
}

TEST(AuditInvariants, RejectsDependentMisDominators) {
  Fixture f;
  // Promote a gray neighbor of an MIS dominator into the MIS.
  const NodeId head = f.result.mis_dominators.front();
  const NodeId neighbor = f.inst.g.neighbors(head).front();
  ASSERT_FALSE(f.result.contains(neighbor));  // gray next to a dominator
  f.result.mask[neighbor] = true;
  f.result.mis_dominators.push_back(neighbor);
  std::sort(f.result.mis_dominators.begin(), f.result.mis_dominators.end());
  f.result.dominators.push_back(neighbor);
  std::sort(f.result.dominators.begin(), f.result.dominators.end());
  // Still a structurally consistent WCDS, so the legacy audit accepts it;
  // only the MIS-aware auditor sees the broken independence.
  EXPECT_TRUE(core::audit_result(f.inst.g, f.result));
  ExpectAuditFailure(f.inst.g, f.result, {}, "Section 2 (independence)");
}

// --- Lemma 1: <= 5 MIS neighbors, near-miss at the bound ---------------------

// Star with `leaves` leaves; the MIS is the leaf set, so the center has
// `leaves` MIS neighbors.
WcdsResult star_mis_result(const graph::Graph& g, NodeId leaves) {
  WcdsResult result;
  const std::size_t n = g.node_count();
  result.mask.assign(n, false);
  for (NodeId u = 1; u <= leaves; ++u) {
    result.mask[u] = true;
    result.dominators.push_back(u);
    result.mis_dominators.push_back(u);
  }
  return result;
}

TEST(AuditInvariants, Lemma1NearMissAtFiveThenSixFails) {
  AuditOptions options;
  options.unit_disk = true;

  std::vector<std::pair<NodeId, NodeId>> edges5;
  for (NodeId u = 1; u <= 5; ++u) edges5.emplace_back(0, u);
  const auto star5 = graph::from_edges(6, edges5);
  EXPECT_NO_THROW(
      check::audit_invariants(star5, star_mis_result(star5, 5), options));

  std::vector<std::pair<NodeId, NodeId>> edges6;
  for (NodeId u = 1; u <= 6; ++u) edges6.emplace_back(0, u);
  const auto star6 = graph::from_edges(7, edges6);
  const auto result6 = star_mis_result(star6, 6);
  EXPECT_TRUE(core::audit_result(star6, result6));  // a fine WCDS, bad UDG MIS
  ExpectAuditFailure(star6, result6, options, "Lemma 1");
}

// --- Lemma 2: 23 two-hop / 47 within-three-hop, near-misses at both bounds ---

// Hub MIS node 0 with `two_hop` MIS satellites at exactly 2 hops (via private
// relays adjacent to the hub) and `three_hop` MIS nodes at exactly 3 hops
// (via private 2-relay chains).  Not a UDG — that is the point: the auditor
// must catch counts no genuine unit-disk instance can produce.
struct HubInstance {
  graph::Graph g;
  WcdsResult result;
};

HubInstance hub_instance(NodeId two_hop, NodeId three_hop) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  std::vector<NodeId> mis = {0};
  // The 3-hop chains' first relays become additional dominators: without
  // them the relay1-relay2 edges have no black endpoint and the set would
  // (correctly) fail Section 1 weak connectivity before reaching Lemma 2.
  std::vector<NodeId> bridges;
  NodeId next = 1;
  for (NodeId i = 0; i < two_hop; ++i) {
    const NodeId relay = next++;
    const NodeId satellite = next++;
    edges.emplace_back(0, relay);
    edges.emplace_back(relay, satellite);
    mis.push_back(satellite);
  }
  for (NodeId i = 0; i < three_hop; ++i) {
    const NodeId relay1 = next++;
    const NodeId relay2 = next++;
    const NodeId far = next++;
    edges.emplace_back(0, relay1);
    edges.emplace_back(relay1, relay2);
    edges.emplace_back(relay2, far);
    mis.push_back(far);
    bridges.push_back(relay1);
  }
  HubInstance inst;
  inst.g = graph::from_edges(next, edges);
  inst.result.mask.assign(next, false);
  std::sort(mis.begin(), mis.end());
  inst.result.mis_dominators = mis;
  inst.result.additional_dominators = bridges;
  inst.result.dominators = mis;
  inst.result.dominators.insert(inst.result.dominators.end(), bridges.begin(),
                                bridges.end());
  std::sort(inst.result.dominators.begin(), inst.result.dominators.end());
  for (NodeId u : inst.result.dominators) {
    inst.result.mask[u] = true;
  }
  return inst;
}

TEST(AuditInvariants, Lemma2TwoHopNearMissAt23Then24Fails) {
  AuditOptions options;
  options.unit_disk = true;
  const auto ok = hub_instance(23, 0);
  EXPECT_TRUE(core::audit_result(ok.g, ok.result));
  EXPECT_NO_THROW(check::audit_invariants(ok.g, ok.result, options));

  const auto bad = hub_instance(24, 0);
  EXPECT_TRUE(core::audit_result(bad.g, bad.result));
  ExpectAuditFailure(bad.g, bad.result, options, "Lemma 2");
}

TEST(AuditInvariants, Lemma2ThreeHopNearMissAt47Then48Fails) {
  AuditOptions options;
  options.unit_disk = true;
  // 23 at two hops + 24 at three hops = 47 within three: exactly the bound.
  const auto ok = hub_instance(23, 24);
  EXPECT_NO_THROW(check::audit_invariants(ok.g, ok.result, options));

  // One more three-hop member: 48 within three hops.
  const auto bad = hub_instance(23, 25);
  ExpectAuditFailure(bad.g, bad.result, options, "Lemma 2");
}

// --- Lemma 3 / Theorem 4 -----------------------------------------------------

TEST(AuditInvariants, Theorem4RejectsThreeHopComplementarySubsets) {
  // Path 0..6 with MIS {0, 3, 6} (pairwise 3 hops) plus bridges {1, 4}:
  // a valid WCDS whose complementary-subset distance is 3, not 2.
  const auto g = graph::from_edges(
      7, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}});
  WcdsResult result;
  result.mask.assign(7, false);
  result.dominators = {0, 1, 3, 4, 6};
  result.mis_dominators = {0, 3, 6};
  result.additional_dominators = {1, 4};
  for (NodeId u : result.dominators) {
    result.mask[u] = true;
  }
  ASSERT_TRUE(core::audit_result(g, result));
  // Lemma 3 (any MIS): fine.
  EXPECT_NO_THROW(check::audit_invariants(g, result, {}));
  // Theorem 4 (level-ranked claim): violated at distance 3.
  AuditOptions options;
  options.level_ranked = true;
  ExpectAuditFailure(g, result, options, "Theorem 4");
}

TEST(AuditInvariants, Lemma3RejectsFourHopComplementarySubsets) {
  // Path 0..8, "MIS" {0, 4, 8} is pairwise 4 hops apart.  (It is also not
  // maximal — node 2 has no MIS neighbor — which is exactly why the auditor
  // checks subset distance before maximality: a maximal independent set can
  // never violate Lemma 3, so the other order would make this unreachable.)
  // Additional dominators {1, 2, 6, 7} keep Section 1 satisfied.
  const auto g = graph::from_edges(
      9, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8}});
  WcdsResult result;
  result.mask.assign(9, false);
  result.dominators = {0, 1, 2, 4, 6, 7, 8};
  result.mis_dominators = {0, 4, 8};
  result.additional_dominators = {1, 2, 6, 7};
  for (NodeId u : result.dominators) {
    result.mask[u] = true;
  }
  ASSERT_TRUE(core::audit_result(g, result));
  ExpectAuditFailure(g, result, {}, "Lemma 3");
}

// --- Theorem 11 --------------------------------------------------------------

// Ring of n = 3k nodes with the MIS every third node and one bridge per MIS
// pair (the node after each MIS node), except bridge `dropped`.
WcdsResult ring_result(NodeId n, NodeId dropped = kInvalidNode) {
  std::vector<NodeId> mis;
  std::vector<NodeId> bridges;
  for (NodeId u = 0; u < n; u += 3) {
    mis.push_back(u);
    if (u + 1 != dropped) bridges.push_back(u + 1);
  }
  return WcdsResult::from_members(n, std::move(mis), std::move(bridges));
}

graph::Graph ring(NodeId n) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < n; ++u) edges.emplace_back(u, (u + 1) % n);
  return graph::from_edges(n, edges);
}

TEST(AuditInvariants, Theorem11RejectsExcessDilation) {
  // 15-ring, MIS {0, 3, ..., 12}.  Without bridge 1 the ring stays a WCDS,
  // but MIS nodes 0 and 3 (3 hops apart) are 12 spanner hops apart the
  // long way round: 12 > 3*3 + 2.
  const auto g = ring(15);
  AuditOptions options;
  options.check_dilation = true;
  EXPECT_NO_THROW(check::audit_invariants(g, ring_result(15), options));
  const WcdsResult bad = ring_result(15, 1);
  ASSERT_TRUE(core::audit_result(g, bad));
  EXPECT_NO_THROW(check::audit_invariants(g, bad, {}));
  ExpectAuditFailure(g, bad, options, "Theorem 11");
}

TEST(AuditInvariants, Theorem11CertificateIsStricterThanTheBound) {
  // 9-ring without bridge 1: MIS nodes 0 and 3 are 6 <= 3*3 + 2 spanner
  // hops apart, but not within 3, so the certificate (not the bound) fails.
  const auto g = ring(9);
  AuditOptions options;
  options.check_dilation = true;
  ExpectAuditFailure(g, ring_result(9, 1), options,
                     "Theorem 11 (topological dilation): MIS nodes 0 and 3");
}

// --- A sole bridge dropped from every Algorithm II construction --------------

// Builds g under `build`, then drops a sole bridge (sole_bridge.h) whose loss
// every other audit misses, and requires that `tripwire` -- the options the
// construction's own audit runs with -- names Theorem 11.
void ExpectSoleBridgeDropRaisesTheorem11(const graph::Graph& g,
                                         const core::BuildOptions& build,
                                         const AuditOptions& tripwire) {
  ASSERT_TRUE(tripwire.check_dilation);
  const WcdsResult result = core::build(g, build).result;
  EXPECT_NO_THROW(check::audit_invariants(g, result, tripwire));
  AuditOptions without_certificate = tripwire;
  without_certificate.check_dilation = false;
  for (const auto& sole : wcds::testing::sole_bridges(g, result)) {
    const WcdsResult dropped = wcds::testing::without(result, sole.bridge);
    try {
      check::audit_invariants(g, dropped, without_certificate);
    } catch (const CheckError&) {
      continue;  // the drop broke something else too
    }
    ExpectAuditFailure(g, dropped, tripwire, "Theorem 11");
    return;
  }
  FAIL() << "no sole bridge that only Theorem 11 misses";
}

TEST(AuditInvariants, SoleBridgeDropRaisesTheorem11InCentralBuilds) {
  const auto inst = wcds::testing::connected_udg(150, 8.0, 5);
  AuditOptions tripwire;
  tripwire.check_dilation = true;
  for (const auto selection :
       {core::Algorithm2Options::Selection::kLexSmallestPair,
        core::Algorithm2Options::Selection::kReuseIntermediates}) {
    core::BuildOptions build;
    build.selection = selection;
    ExpectSoleBridgeDropRaisesTheorem11(inst.g, build, tripwire);
  }
}

TEST(AuditInvariants, SoleBridgeDropRaisesTheorem11InProtocolBuilds) {
  const auto inst = wcds::testing::connected_udg(150, 8.0, 6);
  AuditOptions tripwire;
  tripwire.check_dilation = true;
  for (const auto& delays :
       {sim::DelayModel::unit(), sim::DelayModel::uniform(1, 7, 3)}) {
    core::BuildOptions build;
    build.algorithm = core::BuildAlgorithm::kAlgorithm2Protocol;
    build.delays = delays;
    ExpectSoleBridgeDropRaisesTheorem11(inst.g, build, tripwire);
  }
}

TEST(AuditInvariants, SoleBridgeDropRaisesTheorem11InResilientBuilds) {
  const auto inst = wcds::testing::connected_udg(150, 8.0, 7);
  for (const auto algorithm : {core::BuildAlgorithm::kAlgorithm2Central,
                               core::BuildAlgorithm::kAlgorithm2Protocol}) {
    core::BuildOptions build;
    build.algorithm = algorithm;
    build.resilience = core::ResilienceSpec{1, 2};
    AuditOptions tripwire;
    tripwire.check_dilation = true;
    tripwire.resilience = build.resilience;
    ExpectSoleBridgeDropRaisesTheorem11(inst.g, build, tripwire);
  }
}

// --- Active-node scope -------------------------------------------------------

TEST(AuditInvariants, ActiveMaskExemptsInactiveNodesButNotEdges) {
  // Two nodes, no edges (node 1 inactive and isolated): {0} is a valid
  // dominator set for the active part.
  const auto g = graph::from_edges(2, std::initializer_list<
                                          std::pair<NodeId, NodeId>>{});
  WcdsResult result;
  result.mask = {true, false};
  result.dominators = {0};
  result.mis_dominators = {0};
  const std::vector<bool> active = {true, false};
  AuditOptions options;
  options.active = &active;
  EXPECT_NO_THROW(check::audit_invariants(g, result, options));

  // An inactive node that still has an edge is a maintenance bug.
  const auto g_bad = graph::from_edges(2, {{0, 1}});
  ExpectAuditFailure(g_bad, result, options, "inactive");
}

}  // namespace
}  // namespace wcds
