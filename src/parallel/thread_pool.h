// Fixed-size thread pool with a deterministic parallel_for.
//
// Design goals (docs/PERFORMANCE.md):
//  - Determinism: parallel_for(begin, end, grain, fn) executes fn(i) exactly
//    once for every index; callers write results into per-index slots they
//    own, then merge in index order, so the output is byte-identical no
//    matter how many threads ran or how chunks were scheduled.  A one-thread
//    pool (or WCDS_THREADS=1) runs everything inline in ascending order —
//    the serial path is the same code.
//  - No global fan-out surprises: the process-wide pool is created lazily on
//    first use; WCDS_THREADS=1 never spawns a thread.
//
// Thread-count resolution: explicit constructor argument, else the
// WCDS_THREADS environment variable, else std::thread::hardware_concurrency.
// Every count is capped at kMaxThreads, so no outside input (a flag, the
// environment) can ask for an unbounded number of OS threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"

namespace wcds::parallel {

// The most threads one pool may run.
inline constexpr std::size_t kMaxThreads = 256;

// Threads a default-constructed pool uses: WCDS_THREADS when it parses as a
// count in [1, kMaxThreads], else hardware_concurrency (clamped to
// [1, kMaxThreads]).  Reads the environment on every call so tests can
// override per-case.
[[nodiscard]] std::size_t default_thread_count();

class ThreadPool {
 public:
  // threads == 0 selects default_thread_count().  threads == 1 keeps the
  // pool workerless: every parallel_for runs inline on the caller.  Throws
  // std::invalid_argument, before starting any thread, when threads >
  // kMaxThreads.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Total execution lanes, including the calling thread.
  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size() + 1;
  }

  // Execute fn(i) exactly once for every i in [begin, end), in chunks of at
  // least `grain` consecutive indices.  The caller participates; returns
  // once every index has run.  The first exception thrown by fn is
  // rethrown here (remaining chunks are abandoned).  Not reentrant: fn must
  // not call parallel_for on the same pool.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t)>& fn)
      WCDS_EXCLUDES(mutex_);

 private:
  struct Job;

  void worker_loop() WCDS_EXCLUDES(mutex_);
  static void drain(Job& job);

  std::vector<std::thread> workers_;
  base::Mutex mutex_;
  base::CondVar wake_;  // workers wait for a job or stop
  base::CondVar done_;  // caller waits for workers to finish
  Job* job_ WCDS_GUARDED_BY(mutex_) = nullptr;
  std::uint64_t job_generation_ WCDS_GUARDED_BY(mutex_) = 0;
  std::size_t workers_active_ WCDS_GUARDED_BY(mutex_) = 0;
  bool stop_ WCDS_GUARDED_BY(mutex_) = false;
};

// Process-wide pool, created on first use with default_thread_count()
// threads.  Never constructed when the effective thread count is 1.
[[nodiscard]] ThreadPool& global_pool();

// Process-cached pool for an explicit thread count — the first-class
// alternative to env-only configuration.  0 resolves WCDS_THREADS /
// hardware_concurrency at the pool's creation; 1 returns a workerless pool
// whose parallel_for runs inline on the caller.  Pools are created lazily,
// one per distinct requested count, and live for the process (callers may
// keep references across calls, so teardown would dangle).
[[nodiscard]] ThreadPool& pool_for(std::size_t threads);

// Install `pool` as the pool parallel_for() below uses; returns the previous
// override (null = use the lazy global pool).  The swap itself is atomic,
// but callers must still quiesce their own parallel_for calls before
// destroying the previously installed pool.
ThreadPool* set_global_pool(ThreadPool* pool) noexcept;

// RAII form of set_global_pool for test scopes.
class ScopedPool {
 public:
  explicit ScopedPool(ThreadPool& pool) : previous_(set_global_pool(&pool)) {}
  ~ScopedPool() { set_global_pool(previous_); }

  ScopedPool(const ScopedPool&) = delete;
  ScopedPool& operator=(const ScopedPool&) = delete;

 private:
  ThreadPool* previous_;
};

// parallel_for over the installed (or lazy global) pool.  Runs inline —
// without ever creating the pool — when the range is a single chunk or the
// effective thread count is 1.
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t)>& fn);

}  // namespace wcds::parallel
