#include "facade/build.h"

#include <utility>

#include "check/check.h"
#include "protocols/algorithm1_protocol.h"
#include "protocols/algorithm2_protocol.h"
#include "wcds/resilient.h"

namespace wcds::core {
namespace {

// Reconstitute a MisResult from the construction's MIS-dominator list.
mis::MisResult mis_from_members(std::vector<NodeId> members, std::size_t n) {
  mis::MisResult mis;
  mis.mask.assign(n, false);
  for (NodeId u : members) mis.mask[u] = true;
  mis.members = std::move(members);
  return mis;
}

}  // namespace

const char* to_string(BuildAlgorithm algorithm) {
  switch (algorithm) {
    case BuildAlgorithm::kAlgorithm1Central: return "algorithm1-central";
    case BuildAlgorithm::kAlgorithm2Central: return "algorithm2-central";
    case BuildAlgorithm::kAlgorithm1Protocol: return "algorithm1-protocol";
    case BuildAlgorithm::kAlgorithm2Protocol: return "algorithm2-protocol";
  }
  return "?";
}

BuildReport build(const graph::Graph& g, const BuildOptions& options) {
  WCDS_REQUIRE(g.node_count() > 0, "build: empty graph");
  obs::Recorder* rec = obs::recorder_or_global(options.recorder);
  obs::PhaseTimer total_timer(rec, "build/total");

  BuildReport report;
  const std::size_t n = g.node_count();
  switch (options.algorithm) {
    case BuildAlgorithm::kAlgorithm1Central: {
      Algorithm1Options algorithm_options;
      algorithm_options.root = options.root;
      algorithm_options.tree = options.tree;
      report.result = algorithm1(g, algorithm_options);
      report.mis = mis_from_members(report.result.mis_dominators, n);
      // The default leadership criterion picks the minimum ID (node 0 —
      // ids are dense).
      report.leader = options.root == kInvalidNode ? 0 : options.root;
      break;
    }
    case BuildAlgorithm::kAlgorithm2Central: {
      Algorithm2Options algorithm_options;
      algorithm_options.selection = options.selection;
      Algorithm2Output out = algorithm2(g, algorithm_options);
      report.result = std::move(out.result);
      report.mis = std::move(out.mis);
      report.lists = std::move(out.lists);
      break;
    }
    case BuildAlgorithm::kAlgorithm1Protocol: {
      protocols::DistributedAlgorithm1Run run = protocols::run_algorithm1(
          g, options.delays, rec, options.faults, options.execution,
          options.threads);
      report.result = std::move(run.wcds);
      report.stats = std::move(run.stats);
      report.leader = run.leader;
      report.levels = std::move(run.levels);
      report.mis = mis_from_members(report.result.mis_dominators, n);
      break;
    }
    case BuildAlgorithm::kAlgorithm2Protocol: {
      protocols::DistributedWcdsRun run = protocols::run_algorithm2(
          g, options.delays, rec, options.faults, options.execution,
          options.threads);
      report.result = std::move(run.wcds);
      report.stats = std::move(run.stats);
      report.mis = mis_from_members(report.result.mis_dominators, n);
      // The MIS fixpoint is timing-independent, so the centralized list
      // computation reproduces the protocol's dominator knowledge (the
      // differential suite pins this down).
      report.lists = compute_dominator_lists(g, report.mis);
      break;
    }
  }

  if (options.resilience.enabled()) {
    obs::PhaseTimer resilience_timer(rec, "build/resilience");
    augment_resilience(g, report.result, options.resilience, rec);
    // The MIS is untouched by the augmentation (new members are additional
    // dominators), so report.mis and the dominator lists stay valid.
  }

  if (rec != nullptr) {
    auto& metrics = rec->metrics();
    metrics.add("build/runs");
    metrics.add(std::string("build/runs/") + to_string(options.algorithm));
    metrics.observe("build/nodes", static_cast<double>(n));
    metrics.observe("build/edges", static_cast<double>(g.edge_count()));
    metrics.observe("build/wcds_size",
                    static_cast<double>(report.result.size()));
    if (report.stats.transmissions > 0) {
      metrics.observe("build/transmissions",
                      static_cast<double>(report.stats.transmissions));
      metrics.observe("build/completion_time",
                      static_cast<double>(report.stats.completion_time));
    }
    total_timer.stop();
    report.metrics = rec->snapshot();
  }
  return report;
}

}  // namespace wcds::core
