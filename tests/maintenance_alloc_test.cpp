// Allocation guard for DynamicWcds: the event path keeps its sets in
// reused, epoch-marked member vectors, so once warmed up a maintenance
// event makes (almost) no heap allocation, at any n.  The count is a
// deterministic witness with no timing in it: a per-event std::set, a
// returned vector or a rebuilt grid shows up at once.  The benchmark churn
// mix runs 200 warm-up events, then 200 counted ones, at n = 1024 and
// n = 16384 at the same density; each must average at most 8 allocations
// per event (a few remain for scratch growth and new grid cells).
#include <cstdint>

#include <gtest/gtest.h>

#include "bench_support/alloc_counter.h"
#include "check/check.h"
#include "churn_mix.h"
#include "maintenance/dynamic_wcds.h"

namespace wcds::testing {
namespace {

constexpr int kWarmUpEvents = 200;
constexpr int kEvents = 200;
constexpr double kMaxAllocationsPerEvent = 8.0;

// Mean heap allocations per event over kEvents churn events on an n-node
// deployment at the benchmark's density, after kWarmUpEvents uncounted
// ones, audits off.
double allocations_per_event(std::uint32_t n) {
  const auto points = churn_deployment(n, 3);
  maintenance::DynamicWcds net(points);
  ChurnMix mix(5, points);
  for (int e = 0; e < kWarmUpEvents; ++e) apply(net, mix.next(net));
  std::uint64_t total = 0;
  for (int e = 0; e < kEvents; ++e) {
    const ChurnEvent event = mix.next(net);
    bench::AllocationCounter counter;
    const auto report = apply(net, event);
    total += counter.stop();
    EXPECT_LE(report.region_size, n);
  }
  return static_cast<double>(total) / kEvents;
}

TEST(MaintenanceAllocations, PerEventAllocationsIndependentOfN) {
  const bool audits = check::set_audits_enabled(false);
  const double small = allocations_per_event(1024);
  const double large = allocations_per_event(16384);
  check::set_audits_enabled(audits);
  RecordProperty("allocs_per_event_n1024", std::to_string(small));
  RecordProperty("allocs_per_event_n16384", std::to_string(large));
  EXPECT_LE(small, kMaxAllocationsPerEvent) << "at n = 1024";
  EXPECT_LE(large, kMaxAllocationsPerEvent) << "at n = 16384";
}

}  // namespace
}  // namespace wcds::testing
