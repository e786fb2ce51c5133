#include "bench_support/alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<int> g_running{0};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_running.load(std::memory_order_relaxed) > 0) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
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

namespace wcds::bench {

AllocationCounter::AllocationCounter()
    : start_(g_allocations.load(std::memory_order_relaxed)) {
  g_running.fetch_add(1, std::memory_order_relaxed);
}

AllocationCounter::~AllocationCounter() { stop(); }

std::uint64_t AllocationCounter::stop() {
  if (running_) {
    total_ = g_allocations.load(std::memory_order_relaxed) - start_;
    running_ = false;
    g_running.fetch_sub(1, std::memory_order_relaxed);
  }
  return total_;
}

}  // namespace wcds::bench
