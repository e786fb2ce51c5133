// Allocation guard for the serving hot path: ServingEngine::serve must not
// touch the heap.  Candidate domains are picked by scanning the clusterhead's
// overlay-distance row, not collected and sorted, so a request costs no
// allocation whatever its resolution.  2^14 requests on an 8192-node
// backbone, under a perfect radio and under 20% loss (retries, lost
// requests), must make zero heap allocations in total.
#include <cstdint>

#include <gtest/gtest.h>

#include "bench_support/alloc_counter.h"
#include "check/check.h"
#include "fault/plan.h"
#include "service/engine.h"
#include "service/registry.h"
#include "test_util.h"
#include "wcds/algorithm2.h"

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
  bench::AllocationCounter counter;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Outcome out = engine.serve(requests[i], i);
    if (out.resolution == Resolution::kInterDomain) ++count.inter_domain;
  }
  count.allocations = counter.stop();
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
