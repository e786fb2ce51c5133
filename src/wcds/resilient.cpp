#include "wcds/resilient.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "check/check.h"
#include "graph/bfs.h"
#include "graph/biconnected.h"
#include "graph/local_bfs.h"
#include "graph/subgraph.h"
#include "obs/metrics.h"

namespace wcds::core {
namespace {

// Phase 1: m-1 additional MIS-style dominator layers.  Each layer is a
// greedy lowest-id MIS of the residual graph induced by the nodes outside
// the backbone; the layer joins the backbone wholesale once chosen, so the
// next layer sees a fresh residual.
std::size_t add_mfold_layers(const graph::Graph& g, std::vector<bool>& mask,
                             std::uint32_t m, std::vector<NodeId>& added) {
  const std::size_t n = g.node_count();
  std::size_t total = 0;
  std::vector<bool> blocked(n, false);
  std::vector<NodeId> joined;
  for (std::uint32_t layer = 1; layer < m; ++layer) {
    blocked.assign(n, false);
    joined.clear();
    for (NodeId u = 0; u < n; ++u) {
      if (mask[u] || blocked[u]) continue;
      joined.push_back(u);
      for (NodeId v : g.neighbors(u)) {
        if (!mask[v]) blocked[v] = true;
      }
    }
    for (NodeId u : joined) {
      mask[u] = true;
      added.push_back(u);
    }
    total += joined.size();
  }
  return total;
}

// One detect-and-patch attempt for the crash of backbone node `v`: label
// the weakly-induced fragments of the survivors in G - v, then, within
// every component of G - v holding two or more fragments, promote the gray
// nodes of a BFS-shortest ear between the lowest-labeled fragment and the
// nearest other one.  Returns how many nodes were promoted (0 when v's
// split is unmergeable, i.e. v is a cut vertex of G itself).
std::size_t patch_crash_of(const graph::Graph& g, graph::LocalBfs& bfs,
                           std::vector<bool>& mask, NodeId v,
                           std::vector<NodeId>& added) {
  const std::size_t n = g.node_count();

  // Fragment labels: weakly-induced reachability of the surviving
  // dominators in G - v (gray nodes take the label of the fragment that
  // reaches them; every fragment holds a dominator because every H-edge
  // has a black endpoint).
  const auto survivor = [&](NodeId u) { return u != v && mask[u]; };
  const graph::Components fragments = graph::label_components(
      g, bfs, survivor, [&](NodeId u, NodeId w) {
        return w != v && (survivor(u) || survivor(w));
      });
  if (fragments.count <= 1) return 0;
  const std::vector<std::uint32_t>& frag = fragments.label;

  // Component labels of G - v: fragments in different components are
  // unmergeable (v cuts the radio graph itself) and stay excused.
  const graph::Components components = graph::label_components(
      g, bfs, [&](NodeId s) { return s != v; },
      [&](NodeId /*u*/, NodeId w) { return w != v; });
  const std::vector<std::uint32_t>& comp = components.label;

  // Lowest fragment label per component (the ear's source side).
  std::vector<std::uint32_t> comp_frag(components.count, kInvalidNode);
  std::vector<bool> comp_split(components.count, false);
  for (NodeId u = 0; u < n; ++u) {
    if (u == v || frag[u] == kInvalidNode) continue;
    std::uint32_t& f = comp_frag[comp[u]];
    if (f == kInvalidNode) {
      f = frag[u];
    } else if (f != frag[u]) {
      comp_split[comp[u]] = true;
      f = std::min(f, frag[u]);
    }
  }

  // One ear per split component: a BFS from every node of the source
  // fragment at once that stops discovering at the first node of another
  // fragment; the ear is that node's chain of discoverers.
  std::size_t promoted = 0;
  std::vector<NodeId> sources;
  for (std::uint32_t c = 0; c < components.count; ++c) {
    if (!comp_split[c]) continue;
    const std::uint32_t source = comp_frag[c];
    sources.clear();
    for (NodeId u = 0; u < n; ++u) {
      if (frag[u] == source && comp[u] == c) sources.push_back(u);
    }
    NodeId hit = kInvalidNode;
    bfs.run(g, sources, kUnreachable, [&](NodeId /*u*/, NodeId w) {
      if (hit != kInvalidNode || w == v) return false;
      if (frag[w] != kInvalidNode && frag[w] != source) hit = w;
      return true;
    });
    if (hit == kInvalidNode) continue;  // lone fragment was mislabeled split
    for (NodeId x = hit; x != kInvalidNode; x = bfs.parent(x)) {
      if (mask[x]) continue;
      mask[x] = true;
      added.push_back(x);
      ++promoted;
    }
  }
  return promoted;
}

}  // namespace

ResilienceReport augment_resilience(const graph::Graph& g, WcdsResult& result,
                                    const ResilienceSpec& spec,
                                    obs::Recorder* recorder) {
  const std::size_t n = g.node_count();
  WCDS_REQUIRE(spec.k >= 1 && spec.k <= 2,
               "augment_resilience: k must be 1 or 2, got " << spec.k);
  WCDS_REQUIRE(spec.m >= spec.k,
               "augment_resilience: m >= k required (a (2,1) backbone "
               "cannot keep domination through a crash), got m="
                   << spec.m << " k=" << spec.k);
  WCDS_REQUIRE(result.mask.size() == n,
               "augment_resilience: result is not indexed by g's nodes");

  ResilienceReport report;
  if (!spec.enabled()) return report;

  std::vector<NodeId> added;
  report.layer_dominators = add_mfold_layers(g, result.mask, spec.m, added);

  if (spec.k >= 2) {
    // Detect-and-patch to fixpoint: cut vertices of the weakly induced
    // subgraph are exactly the crash points that would split the surviving
    // backbone.  Every productive round promotes at least one node, so the
    // loop terminates; a round that promotes nothing means every remaining
    // cut vertex is a cut vertex of G itself (excused per component).
    graph::LocalBfs bfs;  // every search of every patch runs on it
    while (true) {
      const graph::Graph h = graph::weakly_induced_subgraph(g, result.mask);
      const auto blocks = graph::biconnected_components(h);
      std::size_t promoted = 0;
      for (NodeId v = 0; v < n; ++v) {
        if (!result.mask[v] || !blocks.is_cut_vertex[v]) continue;
        promoted += patch_crash_of(g, bfs, result.mask, v, added);
      }
      if (promoted == 0) break;
      report.ear_dominators += promoted;
      ++report.ear_rounds;
    }
  }

  // Fold the new members into the result record: they are additional
  // dominators (S is untouched).
  std::vector<NodeId> additional = std::move(result.additional_dominators);
  additional.insert(additional.end(), added.begin(), added.end());
  std::sort(additional.begin(), additional.end());
  result = WcdsResult::from_members(n, std::move(result.mis_dominators),
                                    std::move(additional));

  if (recorder != nullptr) {
    auto& metrics = recorder->metrics();
    metrics.add("resilience/augments");
    metrics.observe("resilience/layer_dominators",
                    static_cast<double>(report.layer_dominators));
    metrics.observe("resilience/ear_dominators",
                    static_cast<double>(report.ear_dominators));
    metrics.observe("resilience/ear_rounds",
                    static_cast<double>(report.ear_rounds));
    metrics.observe("resilience/backbone_size",
                    static_cast<double>(result.size()));
  }
  return report;
}

}  // namespace wcds::core
