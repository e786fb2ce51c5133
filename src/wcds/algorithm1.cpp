#include "wcds/algorithm1.h"

#include <algorithm>
#include <utility>

#include "check/audit.h"
#include "check/check.h"
#include "graph/bfs.h"
#include "graph/spanning_tree.h"
#include "mis/mis.h"
#include "mis/ranking.h"
#include "obs/recorder.h"

namespace wcds::core {

WcdsResult algorithm1(const graph::Graph& g, const Algorithm1Options& options) {
  WCDS_REQUIRE(g.node_count() > 0, "algorithm1: empty graph");
  WCDS_REQUIRE(graph::is_connected(g), "algorithm1: graph must be connected");
  obs::Recorder* rec = obs::global_recorder();
  obs::PhaseTimer total_timer(rec, "alg1_central/total");
  const NodeId root = options.root == kInvalidNode ? 0 : options.root;
  WCDS_REQUIRE_BOUNDS(root < g.node_count(), "algorithm1: root out of range");

  // Level Calculation Phase: levels are distances in the spanning tree
  // (BFS levels for the synchronous flood, tree depths for any other tree).
  const auto tree = options.tree == Algorithm1Options::Tree::kBfs
                        ? graph::bfs_tree(g, root)
                        : graph::dfs_tree(g, root);

  // Color Marking Phase == greedy MIS under the (level, ID) ranking.
  auto mis = mis::greedy_mis(g, mis::level_ranking(tree));
  std::sort(mis.members.begin(), mis.members.end());
  WcdsResult result =
      WcdsResult::from_members(g.node_count(), std::move(mis.members), {});

  if (rec != nullptr) {
    rec->metrics().add("alg1_central/runs");
    rec->metrics().observe("alg1_central/wcds_size",
                           static_cast<double>(result.size()));
  }

  // Debug/test tripwire: the (level, ID) ranking must yield Theorem 4's
  // two-hop complementary-subset property on top of the MIS/WCDS invariants.
  if (check::audits_enabled()) {
    check::AuditOptions audit_options;
    audit_options.level_ranked = true;
    check::audit_invariants(g, result, audit_options);
  }
  return result;
}

}  // namespace wcds::core
