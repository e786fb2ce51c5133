// Heap-allocation counting for allocation tests and benches.
//
// Linking the wcds_alloc_counter object library into a binary replaces the
// global operator new/delete with malloc/free wrappers that count every
// allocation made on any thread while at least one AllocationCounter is
// running.  Nothing else changes: outside a counter the replacement costs
// one relaxed load per allocation.  Only test and bench binaries link it.
#pragma once

#include <cstdint>

namespace wcds::bench {

// Counts heap allocations from construction until stop() or destruction.
// Counters may overlap; each sees every allocation made while it runs.
class AllocationCounter {
 public:
  AllocationCounter();
  ~AllocationCounter();
  AllocationCounter(const AllocationCounter&) = delete;
  AllocationCounter& operator=(const AllocationCounter&) = delete;

  // Stop counting and return the total; later calls return the same total.
  std::uint64_t stop();

 private:
  std::uint64_t start_;
  std::uint64_t total_ = 0;
  bool running_ = true;
};

}  // namespace wcds::bench
