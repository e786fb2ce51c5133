// Differential test: the invariant checker (check::, mis:: and the adapters
// over them in wcds/verify and DynamicWcds::audit) against the bodies it
// replaced (checker_reference.h), value for value.  Inputs: random UDGs, a
// two-cluster disconnected graph, empty/full/random masks, inactive-node
// sets, crash sets, seeded corruptions of real constructions, and
// DynamicWcds states after churn.  Audit failures are compared by their
// streamed message (operands, lemma name and witness).
#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "check/audit.h"
#include "check/check.h"
#include "checker_reference.h"
#include "churn_mix.h"
#include "geom/rng.h"
#include "geom/workload.h"
#include "graph/spanning_tree.h"
#include "graph/subgraph.h"
#include "maintenance/dynamic_wcds.h"
#include "mis/mis.h"
#include "mis/properties.h"
#include "mis/ranking.h"
#include "test_util.h"
#include "udg/udg.h"
#include "wcds/algorithm1.h"
#include "wcds/algorithm2.h"
#include "wcds/resilient.h"
#include "wcds/verify.h"

namespace wcds::maintenance {

// Seeds the state corruptions the event interface cannot produce.
class DynamicWcdsTestPeer {
 public:
  static void set_mis(DynamicWcds& net, NodeId u, bool in_mis) {
    net.mis_[u] = in_mis;
  }
};

}  // namespace wcds::maintenance

namespace wcds::testing {
namespace {

using maintenance::DynamicWcdsTestPeer;

using core::NodeColor;
using core::WcdsResult;

// --- The checker's side of the two quantities with no other public entry
// point: Lemma 2's maxima and whole-graph H_k connectivity (compared on
// connected graphs only, where it equals connectivity per component).

reference::HopStats subject_hop_stats(const graph::Graph& g,
                                      const std::vector<NodeId>& members) {
  const auto balls = mis::audit_mis_balls(g, members);
  return {balls.max_at_two_hops, balls.max_within_three_hops};
}

bool subject_h_connected(const graph::Graph& g,
                         const std::vector<NodeId>& members,
                         HopCount max_hops) {
  const auto balls = mis::audit_mis_balls(g, members);
  return (max_hops == 2 ? balls.h2 : balls.h3).connected();
}

// --- Inputs -----------------------------------------------------------------

// Two connected clusters far apart: node ids [0, n) and [n, 2n).
struct TwoClusters {
  Instance left;
  Instance right;
  graph::Graph g;
};

TwoClusters two_clusters(std::uint32_t n, double degree, std::uint64_t seed) {
  TwoClusters c{connected_udg(n, degree, seed), connected_udg(n, degree,
                                                              seed + 100),
                {}};
  std::vector<geom::Point> points = c.left.points;
  for (geom::Point p : c.right.points) {
    p.x += 1000.0;
    points.push_back(p);
  }
  c.g = udg::build_udg(points);
  return c;
}

// Shifts every id of `r` by `offset` and appends it to `into`.
void append_result(WcdsResult& into, const WcdsResult& r, NodeId offset) {
  into.mask.insert(into.mask.end(), r.mask.begin(), r.mask.end());
  into.color.insert(into.color.end(), r.color.begin(), r.color.end());
  for (NodeId u : r.dominators) into.dominators.push_back(u + offset);
  for (NodeId u : r.mis_dominators) into.mis_dominators.push_back(u + offset);
  for (NodeId u : r.additional_dominators) {
    into.additional_dominators.push_back(u + offset);
  }
}

WcdsResult two_cluster_algorithm2(const TwoClusters& c) {
  WcdsResult r;
  append_result(r, core::algorithm2(c.left.g).result, 0);
  append_result(r, core::algorithm2(c.right.g).result,
                static_cast<NodeId>(c.left.g.node_count()));
  return r;
}

std::vector<bool> random_mask(std::size_t n, double p, std::uint64_t seed) {
  geom::Xoshiro256ss rng(seed);
  std::vector<bool> mask(n);
  for (std::size_t u = 0; u < n; ++u) mask[u] = rng.next_double(0, 1) < p;
  return mask;
}

// Every mask family the predicates are compared on.
std::vector<std::vector<bool>> masks_for(const graph::Graph& g,
                                         std::uint64_t seed) {
  const std::size_t n = g.node_count();
  std::vector<std::vector<bool>> masks{std::vector<bool>(n, false),
                                       std::vector<bool>(n, true)};
  for (const double p : {0.05, 0.2, 0.4, 0.7}) {
    masks.push_back(random_mask(n, p, seed * 31 + static_cast<std::uint64_t>(
                                                      p * 100)));
  }
  return masks;
}

// A consistent result whose dominator set is `mask` (no MIS split).
WcdsResult result_of_mask(const std::vector<bool>& mask) {
  WcdsResult r;
  r.mask = mask;
  r.color.assign(mask.size(), NodeColor::kGray);
  for (NodeId u = 0; u < mask.size(); ++u) {
    if (!mask[u]) continue;
    r.color[u] = NodeColor::kBlack;
    r.dominators.push_back(u);
  }
  r.additional_dominators = r.dominators;
  return r;
}

// g with every edge at a node outside `active` dropped.
graph::Graph isolate_inactive(const graph::Graph& g,
                              const std::vector<bool>& active) {
  graph::GraphBuilder builder(g.node_count());
  for (const auto& [u, v] : g.edges()) {
    if (active[u] && active[v]) builder.add_edge(u, v);
  }
  return std::move(builder).build();
}

// The streamed message audit_invariants fails with, "" when it passes.
std::string audit_failure(const graph::Graph& g, const WcdsResult& result,
                          const check::AuditOptions& options) {
  try {
    check::audit_invariants(g, result, options);
  } catch (const check::CheckError& e) {
    return e.what();
  }
  return "";
}

void expect_same_failure(const std::string& got, const std::string& want,
                         const std::string& what) {
  if (want.empty()) {
    EXPECT_EQ(got, "") << what;
  } else {
    EXPECT_TRUE(got.ends_with("  " + want))
        << what << "\n  got:  " << got << "\n  want: ..." << want;
  }
}

void insert_sorted(std::vector<NodeId>& list, NodeId u) {
  list.insert(std::upper_bound(list.begin(), list.end(), u), u);
}

// Moves every MIS member that `rng` picks with probability p into the
// additional dominators: mask and partition stay intact, the MIS thins out.
WcdsResult thin_mis(WcdsResult r, double p, std::uint64_t seed) {
  geom::Xoshiro256ss rng(seed);
  std::vector<NodeId> kept;
  for (NodeId u : r.mis_dominators) {
    if (rng.next_double(0, 1) < p) {
      insert_sorted(r.additional_dominators, u);
    } else {
      kept.push_back(u);
    }
  }
  r.mis_dominators = kept;
  return r;
}

// Adds a gray neighbor of an MIS node to the MIS (and the dominators).
WcdsResult adjacent_mis_pair(const graph::Graph& g, WcdsResult r,
                             std::size_t pick) {
  const NodeId u = r.mis_dominators[pick % r.mis_dominators.size()];
  for (NodeId x : g.neighbors(u)) {
    if (r.mask[x]) continue;
    r.mask[x] = true;
    r.color[x] = NodeColor::kBlack;
    insert_sorted(r.dominators, x);
    insert_sorted(r.mis_dominators, x);
    break;
  }
  return r;
}

// --- wcds/verify predicates ---------------------------------------------------

void expect_same_predicates(const graph::Graph& g, const std::vector<bool>& s,
                            const std::string& what) {
  EXPECT_EQ(core::is_dominating(g, s), reference::is_dominating(g, s)) << what;
  EXPECT_EQ(core::is_weakly_connected(g, s),
            reference::is_weakly_connected(g, s))
      << what;
  EXPECT_EQ(core::is_wcds(g, s), reference::is_wcds(g, s)) << what;
  EXPECT_EQ(core::is_cds(g, s), reference::is_cds(g, s)) << what;
}

TEST(CheckerDifferential, VerifyPredicatesOnRandomMasks) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto inst = connected_udg(120, 4.0 + 2.0 * seed, seed);
    for (const auto& s : masks_for(inst.g, seed)) {
      expect_same_predicates(inst.g, s, "udg seed " + std::to_string(seed));
    }
    expect_same_predicates(inst.g, core::algorithm2(inst.g).result.mask,
                           "algorithm2 seed " + std::to_string(seed));
    const auto c = two_clusters(60, 8.0, seed);
    for (const auto& s : masks_for(c.g, seed + 50)) {
      expect_same_predicates(c.g, s, "two clusters " + std::to_string(seed));
    }
    expect_same_predicates(c.g, two_cluster_algorithm2(c).mask,
                           "two-cluster algorithm2 " + std::to_string(seed));
  }
  // Degenerate graphs: no node, one node, isolated nodes only.
  for (const std::size_t n : {0u, 1u, 3u}) {
    graph::GraphBuilder builder(n);
    const auto g = std::move(builder).build();
    for (const auto& s : masks_for(g, n)) {
      expect_same_predicates(g, s, "edgeless n=" + std::to_string(n));
    }
  }
}

// --- audit_result -------------------------------------------------------------

TEST(CheckerDifferential, AuditResultOnCorruptions) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto inst = connected_udg(100, 9.0, seed);
    const WcdsResult good = core::algorithm2(inst.g).result;
    std::vector<WcdsResult> cases{good, core::algorithm1(inst.g)};
    geom::Xoshiro256ss rng(seed);
    const auto any_node = [&] {
      return static_cast<NodeId>(rng.next_below(inst.g.node_count()));
    };
    {  // mask/color disagree
      WcdsResult r = good;
      const NodeId u = any_node();
      r.color[u] = r.mask[u] ? NodeColor::kGray : NodeColor::kBlack;
      cases.push_back(r);
    }
    {  // a white node
      WcdsResult r = good;
      const NodeId u = any_node();
      if (!r.mask[u]) r.color[u] = NodeColor::kWhite;
      cases.push_back(r);
    }
    {  // a dominator missing from the partition
      WcdsResult r = good;
      r.mis_dominators.erase(r.mis_dominators.begin());
      cases.push_back(r);
    }
    {  // dominators out of order
      WcdsResult r = good;
      std::swap(r.dominators.front(), r.dominators.back());
      cases.push_back(r);
    }
    {  // short mask
      WcdsResult r = good;
      r.mask.pop_back();
      cases.push_back(r);
    }
    for (int k = 0; k < 4; ++k) {  // demote a dominator: may break the WCDS
      WcdsResult r = good;
      const NodeId u = r.dominators[rng.next_below(r.dominators.size())];
      r.mask[u] = false;
      r.color[u] = NodeColor::kGray;
      std::erase(r.dominators, u);
      std::erase(r.mis_dominators, u);
      std::erase(r.additional_dominators, u);
      cases.push_back(r);
    }
    for (std::size_t i = 0; i < cases.size(); ++i) {
      EXPECT_EQ(core::audit_result(inst.g, cases[i]),
                reference::audit_result(inst.g, cases[i]))
          << "seed " << seed << " case " << i;
    }
    const auto c = two_clusters(50, 8.0, seed);
    const WcdsResult split = two_cluster_algorithm2(c);
    EXPECT_EQ(core::audit_result(c.g, split),
              reference::audit_result(c.g, split));
  }
}

// --- survives_crashes ---------------------------------------------------------

// Returns how many of the crash sets the backbone survives, and how many it
// was probed with.
std::pair<std::size_t, std::size_t> expect_same_survival(
    const graph::Graph& g, const WcdsResult& r, std::uint64_t seed,
    const std::string& what) {
  std::vector<std::vector<NodeId>> crash_sets{{}};
  for (std::size_t i = 0; i < std::min<std::size_t>(r.dominators.size(), 25);
       ++i) {
    crash_sets.push_back({r.dominators[i]});
  }
  geom::Xoshiro256ss rng(seed);
  for (int k = 0; k < 25; ++k) {
    std::vector<NodeId> crashed;
    const std::size_t size = 2 + rng.next_below(4);
    for (std::size_t j = 0; j < size; ++j) {
      crashed.push_back(static_cast<NodeId>(rng.next_below(g.node_count())));
    }
    if (k % 5 == 0) crashed.push_back(static_cast<NodeId>(g.node_count() + 3));
    crash_sets.push_back(crashed);
  }
  std::size_t survived = 0;
  for (const auto& crashed : crash_sets) {
    const bool want = reference::survives_crashes(g, r, crashed);
    EXPECT_EQ(check::survives_crashes(g, r, crashed), want)
        << what << " crash set of " << crashed.size();
    survived += want ? 1 : 0;
  }
  return {survived, crash_sets.size()};
}

TEST(CheckerDifferential, SurvivesCrashesOnCrashSets) {
  std::size_t survived = 0;
  std::size_t probes = 0;
  const auto tally = [&](std::pair<std::size_t, std::size_t> outcome) {
    survived += outcome.first;
    probes += outcome.second;
  };
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto inst = connected_udg(90, 8.0, seed);
    const WcdsResult plain = core::algorithm2(inst.g).result;
    tally(expect_same_survival(inst.g, plain, seed, "plain"));
    WcdsResult resilient = plain;
    (void)core::augment_resilience(inst.g, resilient,
                                   core::ResilienceSpec{2, 2});
    tally(expect_same_survival(inst.g, resilient, seed + 10, "(2,2)"));
    const auto c = two_clusters(45, 8.0, seed);
    tally(expect_same_survival(c.g, two_cluster_algorithm2(c), seed + 20,
                               "two clusters"));
  }
  EXPECT_GT(survived, probes / 5);  // both outcomes are well represented
  EXPECT_GT(probes - survived, probes / 10);
}

// --- audit_invariants: Section 1 ------------------------------------------------

TEST(CheckerDifferential, SectionOneOnMasksAndInactiveSets) {
  std::size_t failures = 0;
  std::size_t cases = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto inst = connected_udg(110, 7.0, seed);
    const auto c = two_clusters(55, 7.0, seed);
    for (const graph::Graph* g : {&inst.g, &c.g}) {
      const std::size_t n = g->node_count();
      const std::vector<bool> active = random_mask(n, 0.85, seed + 7);
      const graph::Graph isolated = isolate_inactive(*g, active);
      std::vector<std::vector<bool>> masks = masks_for(*g, seed);
      masks.push_back(std::vector<bool>(n, true));
      masks.back()[0] = false;
      // Maximal independent sets dominate but are rarely weakly connected,
      // and their smallest member need not be a component's first node.
      masks.push_back(mis::greedy_mis_by_id(*g).mask);
      masks.push_back(mis::greedy_mis(*g, mis::degree_ranking(*g)).mask);
      for (const auto& s : masks) {
        const WcdsResult r = result_of_mask(s);
        const std::string want = reference::section1_failure(*g, r, nullptr);
        expect_same_failure(audit_failure(*g, r, {}), want,
                            "no inactive nodes");
        failures += want.empty() ? 0 : 1;
        ++cases;
        // The same mask restricted to the active nodes, over a graph where
        // the inactive nodes are isolated -- and over one where they are not.
        std::vector<bool> live_mask = s;
        for (NodeId u = 0; u < n; ++u) live_mask[u] = s[u] && active[u];
        const WcdsResult live = result_of_mask(live_mask);
        check::AuditOptions options;
        options.active = &active;
        expect_same_failure(audit_failure(isolated, live, options),
                            reference::section1_failure(isolated, live, &active),
                            "inactive nodes isolated");
        expect_same_failure(audit_failure(*g, live, options),
                            reference::section1_failure(*g, live, &active),
                            "inactive nodes keep their edges");
      }
    }
  }
  EXPECT_GT(failures, cases / 4);  // both outcomes are well represented
  EXPECT_LT(failures, cases - cases / 10);
}

// --- audit_invariants: the MIS family -------------------------------------------

void expect_same_mis_family(const graph::Graph& g, const WcdsResult& r,
                            bool level_ranked, const std::string& what) {
  check::AuditOptions options;
  options.level_ranked = level_ranked;
  ASSERT_EQ(reference::section1_failure(g, r, nullptr), "") << what;
  expect_same_failure(audit_failure(g, r, options),
                      reference::mis_family_failure(g, r, level_ranked,
                                                    nullptr),
                      what);
}

TEST(CheckerDifferential, MisFamilyOnThinnedAndAdjacentSets) {
  std::size_t failures = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto inst = connected_udg(120, 7.0 + seed, seed);
    const auto c = two_clusters(60, 8.0, seed);
    struct Base {
      const graph::Graph* g;
      WcdsResult r;
      bool level_ranked;
    };
    const std::vector<Base> bases{
        {&inst.g, core::algorithm2(inst.g).result, false},
        {&inst.g, core::algorithm1(inst.g), true},
        {&c.g, two_cluster_algorithm2(c), false},
    };
    for (const Base& base : bases) {
      const std::string what = "seed " + std::to_string(seed) +
                               (base.level_ranked ? " level-ranked" : "");
      expect_same_mis_family(*base.g, base.r, base.level_ranked, what);
      for (const double p : {0.1, 0.3, 0.6}) {
        const WcdsResult thin =
            thin_mis(base.r, p, seed * 7 + static_cast<std::uint64_t>(p * 10));
        expect_same_mis_family(*base.g, thin, base.level_ranked,
                               what + " thinned");
        failures += reference::mis_family_failure(*base.g, thin,
                                                  base.level_ranked, nullptr)
                            .empty()
                        ? 0
                        : 1;
      }
      for (std::size_t pick = 0; pick < 3; ++pick) {
        expect_same_mis_family(*base.g,
                               adjacent_mis_pair(*base.g, base.r, pick * 17),
                               base.level_ranked, what + " adjacent pair");
      }
    }
  }
  EXPECT_GT(failures, 20u);  // the thinned cases do reach the MIS family
}

// --- Lemmas 1-3 and Theorem 4 as quantities ---------------------------------

TEST(CheckerDifferential, LemmaQuantitiesOnMisVariants) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto inst = connected_udg(250, 6.0 + 3.0 * seed, seed);
    const auto& g = inst.g;
    std::vector<std::vector<NodeId>> sets{
        mis::greedy_mis_by_id(g).members,
        mis::greedy_mis(g, mis::degree_ranking(g)).members,
        mis::greedy_mis(g, mis::level_ranking(graph::bfs_tree(g, 0))).members,
    };
    for (std::size_t i = 0; i < 3; ++i) {  // thinned: not maximal any more
      geom::Xoshiro256ss rng(seed * 13 + i);
      std::vector<NodeId> thin;
      for (NodeId u : sets[i]) {
        if (rng.next_double(0, 1) < 0.7) thin.push_back(u);
      }
      sets.push_back(thin);
    }
    sets.push_back({});
    sets.push_back({sets[0].front()});
    for (std::size_t i = 0; i < sets.size(); ++i) {
      const auto& members = sets[i];
      const std::string what =
          "seed " + std::to_string(seed) + " set " + std::to_string(i);
      const auto mask = graph::make_mask(g.node_count(), members);
      EXPECT_EQ(mis::max_mis_neighbors(g, mask),
                reference::max_mis_neighbors(g, mask))
          << what;
      const auto got = subject_hop_stats(g, members);
      const auto want = reference::hop_neighborhood_stats(g, members);
      EXPECT_EQ(got.max_at_two_hops, want.max_at_two_hops) << what;
      EXPECT_EQ(got.max_within_three_hops, want.max_within_three_hops) << what;
      for (const HopCount k : {2u, 3u}) {
        EXPECT_EQ(subject_h_connected(g, members, k),
                  reference::h_connected(g, members, k))
            << what << " H_" << k;
      }
    }
  }
}

// --- DynamicWcds::audit() ---------------------------------------------------------

void expect_same_dynamic_audit(const maintenance::DynamicWcds& net,
                               const std::string& what) {
  const maintenance::Audit got = net.audit();
  const reference::DynamicSections want = reference::dynamic_audit(net);
  EXPECT_EQ(got.mis_independent, want.mis_independent) << what;
  EXPECT_EQ(got.mis_maximal, want.mis_maximal) << what;
  EXPECT_EQ(got.bridges_complete, want.bridges_complete) << what;
  EXPECT_EQ(got.weakly_connected, want.weakly_connected) << what;
}

TEST(CheckerDifferential, DynamicAuditAfterChurn) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto points = churn_deployment(160, seed, 10.0);
    if (seed == 3) {  // a second, far-away cluster
      const auto right = churn_deployment(80, seed + 40, 10.0);
      for (geom::Point p : right) {
        p.x += 1000.0;
        points.push_back(p);
      }
    }
    maintenance::DynamicWcds net(points);
    ChurnMix mix(seed, points, 0.8);
    expect_same_dynamic_audit(net, "initial");
    for (int step = 0; step < 120; ++step) {
      (void)apply(net, mix.next(net));
      if (step % 8 == 0) {
        expect_same_dynamic_audit(net, "step " + std::to_string(step));
      }
    }
  }
}

TEST(CheckerDifferential, DynamicAuditOnSeededCorruptions) {
  const auto points = churn_deployment(150, 9, 10.0);
  maintenance::DynamicWcds net(points);
  std::size_t failing = 0;
  for (NodeId u = 0; u < net.node_count(); u += 3) {
    const bool was = net.is_mis_dominator(u);
    DynamicWcdsTestPeer::set_mis(net, u, !was);
    expect_same_dynamic_audit(net, "flip " + std::to_string(u));
    failing += net.audit().ok() ? 0 : 1;
    DynamicWcdsTestPeer::set_mis(net, u, was);
  }
  {  // an inactive MIS node
    AuditsOff off;
    const NodeId u = 7;
    (void)net.deactivate(u);
    DynamicWcdsTestPeer::set_mis(net, u, true);
    expect_same_dynamic_audit(net, "inactive MIS node");
    DynamicWcdsTestPeer::set_mis(net, u, false);
  }
  EXPECT_GT(failing, 40u);
}

// --- No predicate reaches the failure handler ----------------------------------

int g_handler_calls = 0;

void counting_handler(const check::FailureContext& /*context*/) {
  ++g_handler_calls;
}

// Installs counting_handler for its lifetime.
class CountingHandler {
 public:
  CountingHandler() : previous_(check::set_failure_handler(&counting_handler)) {
    g_handler_calls = 0;
  }
  ~CountingHandler() { check::set_failure_handler(previous_); }
  CountingHandler(const CountingHandler&) = delete;
  CountingHandler& operator=(const CountingHandler&) = delete;

 private:
  check::FailureHandler previous_;
};

TEST(CheckerPredicates, ViolationsNeverReachTheFailureHandler) {
  // A predicate that caught CheckError would still have called the handler
  // first -- and under check::abort_handler it would abort, not return.
  const auto points = churn_deployment(120, 4, 10.0);
  maintenance::DynamicWcds net(points);
  const CountingHandler handler;

  // Path 0..5 with S = {1, 4}: dominating, weakly disconnected.
  const auto g = graph::from_edges(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  WcdsResult split = result_of_mask({false, true, false, false, true, false});
  split.mis_dominators = split.dominators;
  split.additional_dominators.clear();
  EXPECT_FALSE(core::audit_result(g, split));
  EXPECT_FALSE(core::is_wcds(g, split.mask));
  WcdsResult miscolored = split;
  miscolored.color[1] = NodeColor::kGray;
  EXPECT_FALSE(core::audit_result(g, miscolored));

  // Crashing 2 cuts the survivors {0, 1} from {3, 4, 5} in G minus 2.
  const auto ring = graph::from_edges(
      6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}});
  const WcdsResult backbone =
      result_of_mask({false, true, true, false, true, false});
  const NodeId crash[] = {2};
  EXPECT_FALSE(check::survives_crashes(ring, backbone, crash));

  // An MIS node demoted, then one of its neighbors promoted next to it.
  NodeId u = 0;
  while (!net.is_mis_dominator(u) || net.active_graph().degree(u) == 0) ++u;
  DynamicWcdsTestPeer::set_mis(net, u, false);
  EXPECT_FALSE(net.audit().ok());
  DynamicWcdsTestPeer::set_mis(net, u, true);
  DynamicWcdsTestPeer::set_mis(net, net.active_graph().neighbors(u).front(),
                               true);
  EXPECT_FALSE(net.audit().ok());

  EXPECT_EQ(g_handler_calls, 0);
}

}  // namespace
}  // namespace wcds::testing
