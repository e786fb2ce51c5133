// Allocation guard for the protocol builds: a simulated delivery must cost
// no heap allocation, so a whole Algorithm I or II run allocates only
// per-node state (the node itself, its neighbor-slot table and its
// dominator lists) plus the runtime's amortized queue and pool growth.
// The heap allocation count is a deterministic witness with no timing in
// it: a per-send payload vector, a sorted-vector set per neighbor or a
// copied payload per delivery would each add allocations per message.
// Both protocols, unit delays, audits off, at n = 1024 and n = 4096 and
// the whole-path benchmark's density (expected degree 16), must stay at or
// below their ceiling of allocations per node: Algorithm I keeps a
// neighbor-slot table per node, Algorithm II also its dominator lists.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "bench_support/alloc_counter.h"
#include "check/check.h"
#include "protocols/algorithm1_protocol.h"
#include "protocols/algorithm2_protocol.h"
#include "test_util.h"

namespace wcds::protocols {
namespace {

constexpr double kMaxPerNodeAlgorithm1 = 5.0;
constexpr double kMaxPerNodeAlgorithm2 = 20.0;

// Heap allocations per node made by one `run` on a connected n-node
// deployment at expected degree 16, audits off.
template <typename Run>
double allocations_per_node(std::uint32_t n, Run run) {
  const auto inst = testing::connected_udg(n, 16.0, 7);
  const bool audits = check::set_audits_enabled(false);
  bench::AllocationCounter counter;
  const auto result = run(inst.g);
  const std::uint64_t allocations = counter.stop();
  check::set_audits_enabled(audits);
  EXPECT_TRUE(result.stats.quiescent);
  EXPECT_FALSE(result.wcds.dominators.empty());
  return static_cast<double>(allocations) / n;
}

class ProtocolAllocations : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ProtocolAllocations, Algorithm1) {
  const double per_node = allocations_per_node(
      GetParam(), [](const graph::Graph& g) { return run_algorithm1(g); });
  RecordProperty("allocations_per_node", std::to_string(per_node));
  EXPECT_LE(per_node, kMaxPerNodeAlgorithm1);
}

TEST_P(ProtocolAllocations, Algorithm2) {
  const double per_node = allocations_per_node(
      GetParam(), [](const graph::Graph& g) { return run_algorithm2(g); });
  RecordProperty("allocations_per_node", std::to_string(per_node));
  EXPECT_LE(per_node, kMaxPerNodeAlgorithm2);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ProtocolAllocations,
                         ::testing::Values(1024U, 4096U));

}  // namespace
}  // namespace wcds::protocols
