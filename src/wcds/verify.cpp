#include "wcds/verify.h"

#include "check/audit.h"
#include "graph/bfs.h"
#include "mis/mis.h"

namespace wcds::core {

bool is_dominating(const graph::Graph& g, const std::vector<bool>& mask) {
  return mis::is_dominating_set(g, mask);
}

bool is_weakly_connected(const graph::Graph& g, const std::vector<bool>& mask) {
  // Over all of V: a disconnected g is never weakly connected.
  const check::WcdsSweep sweep = check::sweep_wcds(g, mask);
  return sweep.components.count <= 1 && sweep.unreached == kInvalidNode;
}

bool is_wcds(const graph::Graph& g, const std::vector<bool>& mask) {
  const check::WcdsSweep sweep = check::sweep_wcds(g, mask);
  return sweep.components.count <= 1 && sweep.ok();
}

bool is_cds(const graph::Graph& g, const std::vector<bool>& mask) {
  if (!is_dominating(g, mask)) return false;
  // G[S] connected: BFS within S from any member must reach every member.
  NodeId start = kInvalidNode;
  std::size_t member_count = 0;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    if (mask[u]) {
      if (start == kInvalidNode) start = u;
      ++member_count;
    }
  }
  if (member_count <= 1) return true;
  const auto induced = graph::induced_subgraph(g, mask);
  const auto dist = graph::bfs_distances(induced, start);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    if (mask[u] && dist[u] == kUnreachable) return false;
  }
  return true;
}

graph::Graph extract_spanner(const graph::Graph& g, const WcdsResult& result) {
  return graph::weakly_induced_subgraph(g, result.mask);
}

bool audit_result(const graph::Graph& g, const WcdsResult& result) {
  return check::is_consistent(g, result) && is_wcds(g, result.mask);
}

}  // namespace wcds::core
