// Allocation guard for the serving hot path: ServingEngine::serve must not
// touch the heap.  Candidate domains are picked by scanning the clusterhead's
// overlay-distance row, not collected and sorted, so a request costs no
// allocation whatever its resolution.  2^14 requests on an 8192-node
// backbone, under a perfect radio and under 20% loss (retries, lost
// requests), must make zero heap allocations in total.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "check/check.h"
#include "fault/plan.h"
#include "service/engine.h"
#include "service/registry.h"
#include "test_util.h"
#include "wcds/algorithm2.h"

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

namespace wcds::service {
namespace {

constexpr std::uint32_t kNodes = 8192;
constexpr std::size_t kRequests = 1u << 14;

// Heap allocations made by serve() over kRequests uniform requests, plus
// how many of them resolved across domains.
struct Count {
  std::uint64_t allocations = 0;
  std::size_t inter_domain = 0;
};

Count count_serve_allocations(const fault::Plan* plan) {
  const auto inst = testing::connected_udg(kNodes, 16.0, 5);
  const auto wcds = core::algorithm2(inst.g);
  const auto registry = uniform_registry(kNodes, 256, 2, 5);
  ServingOptions options;
  options.faults = plan;
  const ServingEngine engine(inst.g, wcds, registry, options);
  const auto requests = uniform_requests(registry, kRequests, 6);

  Count count;
  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Outcome out = engine.serve(requests[i], i);
    if (out.resolution == Resolution::kInterDomain) ++count.inter_domain;
  }
  g_count_allocs.store(false);
  count.allocations = g_alloc_count.load();
  return count;
}

TEST(ServingAllocations, ServeMakesNoHeapAllocationsOnAPerfectRadio) {
  const Count count = count_serve_allocations(nullptr);
  RecordProperty("allocations", std::to_string(count.allocations));
  ASSERT_GT(count.inter_domain, kRequests / 4);
  EXPECT_EQ(count.allocations, 0u);
}

TEST(ServingAllocations, ServeMakesNoHeapAllocationsUnderLoss) {
  const fault::Plan lossy = fault::Plan::lossy(0.2, 9);
  const Count count = count_serve_allocations(&lossy);
  RecordProperty("allocations", std::to_string(count.allocations));
  ASSERT_GT(count.inter_domain, kRequests / 4);
  EXPECT_EQ(count.allocations, 0u);
}

}  // namespace
}  // namespace wcds::service
