// Allocation guard for the protocol builds: a simulated delivery must cost
// no heap allocation, so a whole Algorithm I or II run allocates only
// per-node state (the node itself, its neighbor-slot table and its
// dominator lists) plus the runtime's amortized queue and pool growth.
// The heap allocation count is a deterministic witness with no timing in
// it: a per-send payload vector, a sorted-vector set per neighbor or a
// copied payload per delivery would each add allocations per message.
// Both protocols, unit delays, audits off, at n = 1024 and n = 4096 and
// the whole-path benchmark's density (expected degree 16), must stay at or
// below kMaxPerNode allocations per node.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "check/check.h"
#include "protocols/algorithm1_protocol.h"
#include "protocols/algorithm2_protocol.h"
#include "test_util.h"

// --- Counting global allocator -------------------------------------------
//
// Replacing the global operator new/delete in this TU counts every heap
// allocation in the process while the flag is set; the rest of the run
// (gtest, set-up) is unaffected.

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* ptr = std::malloc(size == 0 ? 1 : size)) return ptr;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

// --------------------------------------------------------------------------

namespace wcds::protocols {
namespace {

constexpr double kMaxPerNode = 20.0;

// Heap allocations per node made by one `run` on a connected n-node
// deployment at expected degree 16, audits off.
template <typename Run>
double allocations_per_node(std::uint32_t n, Run run) {
  const auto inst = testing::connected_udg(n, 16.0, 7);
  const bool audits = check::set_audits_enabled(false);
  g_alloc_count.store(0);
  g_count_allocs.store(true);
  const auto result = run(inst.g);
  g_count_allocs.store(false);
  check::set_audits_enabled(audits);
  EXPECT_TRUE(result.stats.quiescent);
  EXPECT_FALSE(result.wcds.dominators.empty());
  return static_cast<double>(g_alloc_count.load()) / n;
}

class ProtocolAllocations : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ProtocolAllocations, Algorithm1) {
  const double per_node = allocations_per_node(
      GetParam(), [](const graph::Graph& g) { return run_algorithm1(g); });
  RecordProperty("allocations_per_node", std::to_string(per_node));
  EXPECT_LE(per_node, kMaxPerNode);
}

TEST_P(ProtocolAllocations, Algorithm2) {
  const double per_node = allocations_per_node(
      GetParam(), [](const graph::Graph& g) { return run_algorithm2(g); });
  RecordProperty("allocations_per_node", std::to_string(per_node));
  EXPECT_LE(per_node, kMaxPerNode);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ProtocolAllocations,
                         ::testing::Values(1024U, 4096U));

}  // namespace
}  // namespace wcds::protocols
