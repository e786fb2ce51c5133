// Allocation guard for the construct path's flat tables: the unit-disk
// graph build, the Algorithm II dominator lists and the clusterhead
// router's overlay each fill a fixed set of arrays (offsets plus one entry
// array per table, a few stamp and cursor arrays), so each makes the same
// number of heap allocations whatever n is.  A per-node or per-row vector
// anywhere on these paths would make the count grow with n.  Expected
// degree 16, the whole-path benchmark's density; audits off.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "bench_support/alloc_counter.h"
#include "check/check.h"
#include "mis/mis.h"
#include "routing/clusterhead_routing.h"
#include "test_util.h"
#include "udg/udg.h"
#include "wcds/algorithm2.h"

namespace wcds {
namespace {

// The whole-path benchmark's traced ceiling for one unit-disk build.
constexpr std::uint64_t kMaxUdgAllocations = 16;

struct ConstructAllocations {
  std::uint64_t udg = 0;
  std::uint64_t lists = 0;
  std::uint64_t router = 0;
};

template <typename Call>
std::uint64_t allocations_of(Call call) {
  bench::AllocationCounter counter;
  call();
  return counter.stop();
}

ConstructAllocations count_at(std::uint32_t n) {
  const auto inst = testing::connected_udg(n, 16.0, 7);
  const bool audits = check::set_audits_enabled(false);
  ConstructAllocations counts;
  counts.udg = allocations_of([&] {
    const graph::Graph g = udg::build_udg(inst.points);
    EXPECT_EQ(g.edge_count(), inst.g.edge_count());
  });
  const mis::MisResult s = mis::greedy_mis_by_id(inst.g);
  counts.lists = allocations_of([&] {
    const core::DominatorLists lists =
        core::compute_dominator_lists(inst.g, s.mask);
    EXPECT_EQ(lists.node_count(), n);
  });
  const core::Algorithm2Output out = core::algorithm2(inst.g);
  counts.router = allocations_of([&] {
    const routing::ClusterheadRouter router(inst.g, out);
    EXPECT_EQ(router.clusterhead_count(), out.result.mis_dominators.size());
  });
  check::set_audits_enabled(audits);
  return counts;
}

TEST(ConstructAllocations, SameConstantCountAtEveryN) {
  const ConstructAllocations small = count_at(1024);
  const ConstructAllocations large = count_at(16384);
  RecordProperty("udg_allocations", std::to_string(small.udg));
  RecordProperty("lists_allocations", std::to_string(small.lists));
  RecordProperty("router_allocations", std::to_string(small.router));
  EXPECT_EQ(small.udg, large.udg);
  EXPECT_EQ(small.lists, large.lists);
  EXPECT_EQ(small.router, large.router);
  EXPECT_LE(small.udg, kMaxUdgAllocations);
}

}  // namespace
}  // namespace wcds
