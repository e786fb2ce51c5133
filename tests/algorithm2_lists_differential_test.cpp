// The flat Algorithm II dominator lists against the nested-vector oracle
// (algorithm2_reference.h) they replaced: compute_dominator_lists row for
// row, and algorithm2()'s three_hop rows and bridge choices, under both
// Selection rules, across the five workload families, three seeds and two
// densities.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "algorithm2_reference.h"
#include "geom/workload.h"
#include "graph/flat_rows.h"
#include "mis/mis.h"
#include "test_util.h"
#include "wcds/algorithm2.h"

namespace wcds::core {
namespace {

using geom::WorkloadKind;
using Selection = Algorithm2Options::Selection;

constexpr std::uint32_t kNodes = 400;

template <typename T>
void expect_rows_equal(const graph::FlatRows<T>& flat,
                       const std::vector<std::vector<T>>& nested,
                       const std::string& what) {
  ASSERT_EQ(flat.row_count(), nested.size()) << what;
  for (std::size_t u = 0; u < nested.size(); ++u) {
    EXPECT_EQ(testing::to_vector(flat[u]), nested[u]) << what << " row " << u;
  }
}

class Algorithm2ListsDifferential
    : public ::testing::TestWithParam<
          std::tuple<WorkloadKind, std::uint64_t, double>> {
 protected:
  void SetUp() override {
    const auto [kind, seed, degree] = GetParam();
    g_ = testing::connected_workload(kind, kNodes, degree, seed);
    ASSERT_GT(g_.node_count(), 0u);
  }
  graph::Graph g_;
};

TEST_P(Algorithm2ListsDifferential, DominatorListsMatchReference) {
  const mis::MisResult s = mis::greedy_mis_by_id(g_);
  const DominatorLists flat = compute_dominator_lists(g_, s.mask);
  const auto nested = testing::reference::compute_dominator_lists(g_, s);
  EXPECT_EQ(flat.node_count(), g_.node_count());
  expect_rows_equal(flat.one_hop_rows, nested.one_hop, "one_hop");
  expect_rows_equal(flat.two_hop_rows, nested.two_hop, "two_hop");
  expect_rows_equal(flat.three_hop_rows, nested.three_hop, "three_hop");
}

TEST_P(Algorithm2ListsDifferential, SelectionMatchesReference) {
  for (const Selection selection :
       {Selection::kLexSmallestPair, Selection::kReuseIntermediates}) {
    std::ostringstream mode;
    mode << "selection " << static_cast<int>(selection) << ": ";
    Algorithm2Options options;
    options.selection = selection;
    const Algorithm2Output out = algorithm2(g_, options);
    const auto ref = testing::reference::algorithm2_lists(g_, selection);
    expect_rows_equal(out.lists.one_hop_rows, ref.lists.one_hop,
                      mode.str() + "one_hop");
    expect_rows_equal(out.lists.two_hop_rows, ref.lists.two_hop,
                      mode.str() + "two_hop");
    expect_rows_equal(out.lists.three_hop_rows, ref.lists.three_hop,
                      mode.str() + "three_hop");
    std::vector<NodeId> additional;
    for (NodeId v = 0; v < ref.additional.size(); ++v) {
      if (ref.additional[v]) additional.push_back(v);
    }
    EXPECT_EQ(out.result.additional_dominators, additional) << mode.str();
  }
}

std::string cell_name(
    const ::testing::TestParamInfo<Algorithm2ListsDifferential::ParamType>&
        info) {
  const auto [kind, seed, degree] = info.param;
  std::string name = geom::to_string(kind);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_seed" + std::to_string(seed) + "_deg" +
         std::to_string(static_cast<int>(degree));
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, Algorithm2ListsDifferential,
    ::testing::Combine(::testing::Values(WorkloadKind::kUniform,
                                         WorkloadKind::kClustered,
                                         WorkloadKind::kPerturbedGrid,
                                         WorkloadKind::kCorridor,
                                         WorkloadKind::kRing),
                       ::testing::Values(1u, 2u, 3u),
                       ::testing::Values(8.0, 16.0)),
    cell_name);

}  // namespace
}  // namespace wcds::core
