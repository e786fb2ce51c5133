// Differential test: every BFS in src/ runs on graph::LocalBfs; here each
// caller is compared with the std::queue search it replaced
// (bfs_reference.h), value for value.  Inputs: the test_util families,
// sparse disconnected deployments (expected degree 2), live masks with
// crashed nodes, and dominator masks from real backbones, whole and with
// dominators dropped.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/mis_tree_cds.h"
#include "bfs_reference.h"
#include "check/audit.h"
#include "geom/rng.h"
#include "geom/workload.h"
#include "graph/bfs.h"
#include "graph/local_bfs.h"
#include "graph/spanning_tree.h"
#include "test_util.h"
#include "udg/udg.h"
#include "wcds/algorithm2.h"
#include "wcds/resilient.h"

namespace wcds::testing {
namespace {

struct Case {
  std::string name;
  graph::Graph g;
};

// Uniform deployments at expected degree 2: many components, isolated
// nodes among them.
graph::Graph sparse_udg(std::uint32_t count, std::uint64_t seed) {
  const double side = geom::side_for_expected_degree(count, 2.0);
  return udg::build_udg(geom::uniform_square(count, side, seed));
}

std::vector<Case> connected_cases() {
  std::vector<Case> cases;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    cases.push_back({"udg150/" + std::to_string(seed),
                     connected_udg(150, 9.0, seed).g});
  }
  cases.push_back({"udg400", connected_udg(400, 14.0, 7).g});
  for (const auto kind :
       {geom::WorkloadKind::kUniform, geom::WorkloadKind::kClustered,
        geom::WorkloadKind::kPerturbedGrid, geom::WorkloadKind::kCorridor,
        geom::WorkloadKind::kRing}) {
    cases.push_back(
        {geom::to_string(kind), connected_workload(kind, 220, 10.0, 5)});
  }
  cases.push_back({"figure2", figure2_graph()});
  return cases;
}

std::vector<Case> all_cases() {
  std::vector<Case> cases = connected_cases();
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    cases.push_back({"sparse/" + std::to_string(seed), sparse_udg(300, seed)});
  }
  cases.push_back(
      {"two-paths", graph::from_edges(7, {{0, 1}, {1, 2}, {4, 5}, {5, 6}})});
  return cases;
}

// `count` node IDs drawn with repeats (so repeated centers occur).
std::vector<NodeId> draw_nodes(const graph::Graph& g, std::size_t count,
                               geom::Xoshiro256ss& rng) {
  std::vector<NodeId> nodes;
  for (std::size_t i = 0; i < count; ++i) {
    nodes.push_back(static_cast<NodeId>(rng.next_below(g.node_count())));
  }
  return nodes;
}

void expect_same_search(graph::LocalBfs& bfs, const graph::Graph& g,
                        const std::vector<NodeId>& centers, HopCount radius) {
  const auto order = bfs.run(g, centers, radius);
  const reference::Search want = reference::bfs_search(g, centers, radius);
  ASSERT_EQ(std::vector<NodeId>(order.begin(), order.end()), want.order);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    ASSERT_EQ(bfs.distance(u), want.dist[u]) << "node " << u;
    ASSERT_EQ(bfs.parent(u), want.parent[u]) << "node " << u;
  }
}

TEST(BfsDifferential, DistancesLabelsAndTreesMatchTheQueueSearches) {
  for (const Case& c : all_cases()) {
    SCOPED_TRACE(c.name);
    const graph::Graph& g = c.g;
    const auto comps = graph::connected_components(g);
    const auto want = reference::connected_components(g);
    EXPECT_EQ(comps.label, want.label);
    EXPECT_EQ(comps.count, want.count);
    EXPECT_EQ(graph::is_connected(g), g.node_count() <= 1 || want.count == 1);

    geom::Xoshiro256ss rng(g.node_count());
    for (const NodeId source : draw_nodes(g, 6, rng)) {
      const auto dist = reference::bfs_distances(g, source);
      EXPECT_EQ(graph::bfs_distances(g, source), dist);
      HopCount ecc = 0;
      for (const HopCount d : dist) {
        if (d != kUnreachable) ecc = std::max(ecc, d);
      }
      EXPECT_EQ(graph::eccentricity(g, source), ecc);

      const auto tree = graph::bfs_tree(g, source);
      const auto want_tree = reference::bfs_tree(g, source);
      EXPECT_EQ(tree.level, want_tree.level);
      EXPECT_EQ(tree.parent, want_tree.parent);
      EXPECT_TRUE(graph::is_valid_tree(tree, g));

      for (const NodeId target : draw_nodes(g, 8, rng)) {
        EXPECT_EQ(graph::hop_distance(g, source, target),
                  reference::hop_distance(g, source, target))
            << source << " -> " << target;
      }
    }
  }
}

TEST(BfsDifferential, MultiCenterRunsMatchTheQueueSearch) {
  graph::LocalBfs bfs;  // one object across every graph and run
  for (const Case& c : all_cases()) {
    SCOPED_TRACE(c.name);
    geom::Xoshiro256ss rng(c.g.node_count() + 1);
    for (const std::size_t count : {1u, 2u, 5u, 40u}) {
      const std::vector<NodeId> centers = draw_nodes(c.g, count, rng);
      for (const HopCount radius : {0u, 1u, 2u, 3u, kUnreachable}) {
        SCOPED_TRACE(::testing::Message()
                     << count << " centers, radius " << radius);
        expect_same_search(bfs, c.g, centers, radius);
      }
    }
  }
}

// Masks to sweep over `g`: empty, full, random, and a real backbone (the
// union of Algorithm II's per-component outputs) whole and with single
// dominators dropped, which splits it or leaves nodes undominated.
std::vector<std::vector<bool>> sweep_masks(const graph::Graph& g,
                                           geom::Xoshiro256ss& rng) {
  const std::size_t n = g.node_count();
  std::vector<std::vector<bool>> masks{std::vector<bool>(n, false),
                                       std::vector<bool>(n, true)};
  for (const double density : {0.1, 0.3}) {
    std::vector<bool> mask(n);
    for (std::size_t u = 0; u < n; ++u) mask[u] = rng.next_double() < density;
    masks.push_back(mask);
  }
  const core::WcdsResult backbone = core::algorithm2_components(g).result;
  masks.push_back(backbone.mask);
  for (std::size_t i = 0; i < backbone.dominators.size(); i += 7) {
    std::vector<bool> dropped = backbone.mask;
    dropped[backbone.dominators[i]] = false;
    masks.push_back(dropped);
  }
  return masks;
}

TEST(BfsDifferential, WcdsSweepWitnessesMatch) {
  std::size_t unreached = 0;
  for (const Case& c : all_cases()) {
    SCOPED_TRACE(c.name);
    const std::size_t n = c.g.node_count();
    geom::Xoshiro256ss rng(n + 2);
    std::vector<std::vector<bool>> lives{std::vector<bool>(n, true)};
    for (const double crash : {0.05, 0.2}) {
      std::vector<bool> live(n);
      for (std::size_t u = 0; u < n; ++u) live[u] = rng.next_double() >= crash;
      lives.push_back(live);
    }
    const auto masks = sweep_masks(c.g, rng);
    for (std::size_t l = 0; l < lives.size(); ++l) {
      for (std::size_t m = 0; m < masks.size(); ++m) {
        // A dead node is never a dominator (the auditors' precondition).
        std::vector<bool> mask = masks[m];
        for (std::size_t u = 0; u < n; ++u) mask[u] = mask[u] && lives[l][u];
        const std::vector<bool>* live = l == 0 ? nullptr : &lives[l];
        for (const auto orphans :
             {mis::Orphans::kMustBeDominated, mis::Orphans::kExempt}) {
          SCOPED_TRACE(::testing::Message()
                       << "live " << l << ", mask " << m << ", orphans "
                       << (orphans == mis::Orphans::kExempt));
          const auto got = check::sweep_wcds(c.g, mask, live, orphans);
          const auto want = reference::sweep_wcds(c.g, mask, live, orphans);
          EXPECT_EQ(got.undominated, want.undominated);
          EXPECT_EQ(got.unreached, want.unreached);
          EXPECT_EQ(got.components.label, want.components.label);
          EXPECT_EQ(got.components.count, want.components.count);
          if (want.unreached != kInvalidNode) ++unreached;
        }
      }
    }
  }
  EXPECT_GT(unreached, 0u) << "no input exercised the unreached witness";
}

TEST(BfsDifferential, MisTreeCdsMatches) {
  for (const Case& c : connected_cases()) {
    SCOPED_TRACE(c.name);
    const core::WcdsResult got = baselines::mis_tree_cds(c.g);
    const core::WcdsResult want = reference::mis_tree_cds(c.g);
    EXPECT_EQ(got.mis_dominators, want.mis_dominators);
    EXPECT_EQ(got.additional_dominators, want.additional_dominators);
  }
}

TEST(BfsDifferential, TwoTwoResilientAugmentMatches) {
  const core::ResilienceSpec spec{2, 2};
  std::size_t ears = 0;
  for (const Case& c : all_cases()) {
    SCOPED_TRACE(c.name);
    core::WcdsResult got = core::algorithm2_components(c.g).result;
    core::WcdsResult want = got;
    const auto got_report = core::augment_resilience(c.g, got, spec);
    const auto want_report = reference::augment_resilience(c.g, want, spec);
    EXPECT_EQ(got_report.layer_dominators, want_report.layer_dominators);
    EXPECT_EQ(got_report.ear_dominators, want_report.ear_dominators);
    EXPECT_EQ(got_report.ear_rounds, want_report.ear_rounds);
    EXPECT_EQ(got.mis_dominators, want.mis_dominators);
    EXPECT_EQ(got.additional_dominators, want.additional_dominators);
    ears += want_report.ear_dominators;
  }
  EXPECT_GT(ears, 0u) << "no input exercised the ear search";
}

}  // namespace
}  // namespace wcds::testing
