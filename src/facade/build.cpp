#include "facade/build.h"

#include <utility>

#include "check/audit.h"
#include "check/check.h"
#include "graph/subgraph.h"
#include "protocols/algorithm1_protocol.h"
#include "protocols/algorithm2_protocol.h"
#include "wcds/resilient.h"

namespace wcds::core {

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
      report.lists = std::move(out.lists);
      break;
    }
    case BuildAlgorithm::kAlgorithm1Protocol: {
      protocols::DistributedAlgorithm1Run run = protocols::run_algorithm1(
          g, options.delays, rec, options.faults, options.threads);
      report.result = std::move(run.wcds);
      report.stats = std::move(run.stats);
      report.leader = run.leader;
      report.levels = std::move(run.levels);
      break;
    }
    case BuildAlgorithm::kAlgorithm2Protocol: {
      protocols::DistributedWcdsRun run = protocols::run_algorithm2(
          g, options.delays, rec, options.faults, options.threads);
      report.result = std::move(run.wcds);
      report.stats = std::move(run.stats);
      // The MIS fixpoint is timing-independent, so the centralized list
      // computation reproduces the protocol's 1- and 2-hop dominator
      // knowledge (the differential suite pins this down).  The 3-hop
      // lists depend on which SELECTIONs the run made: they come from the
      // protocol nodes themselves.
      report.lists = compute_dominator_lists(
          g, graph::make_mask(n, report.result.mis_dominators));
      report.lists.three_hop_rows = std::move(run.three_hop);
      break;
    }
  }

  if (options.resilience.enabled()) {
    obs::PhaseTimer resilience_timer(rec, "build/resilience");
    augment_resilience(g, report.result, options.resilience, rec);
    // The MIS is untouched by the augmentation (new members are additional
    // dominators), so the dominator lists stay valid.
    // Debug/test tripwire: the augmented backbone must satisfy the plain
    // families, the (k,m) invariants and, built by Algorithm II, Theorem
    // 11's certificate (adding dominators only shortens spanner paths).
    if (check::audits_enabled()) {
      check::AuditOptions audit;
      audit.check_dilation =
          options.algorithm == BuildAlgorithm::kAlgorithm2Central ||
          options.algorithm == BuildAlgorithm::kAlgorithm2Protocol;
      audit.resilience = options.resilience;
      check::audit_invariants(g, report.result, audit);
    }
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
