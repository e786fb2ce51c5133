// Allocation guard for DynamicWcds: the event path keeps its sets in
// reused, epoch-marked member vectors, so once warmed up a maintenance
// event makes (almost) no heap allocation, at any n.  The count is a
// deterministic witness with no timing in it: a per-event std::set, a
// returned vector or a rebuilt grid shows up at once.  The benchmark churn
// mix runs 200 warm-up events, then 200 counted ones, at n = 1024 and
// n = 16384 at the same density; each must average at most 8 allocations
// per event (a few remain for scratch growth and new grid cells).
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "check/check.h"
#include "churn_mix.h"
#include "maintenance/dynamic_wcds.h"

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
    g_alloc_count.store(0);
    g_count_allocs.store(true);
    const auto report = apply(net, event);
    g_count_allocs.store(false);
    total += g_alloc_count.load();
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
