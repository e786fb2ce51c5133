#include "parallel/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>

#include "check/check.h"

namespace wcds::parallel {

std::size_t default_thread_count() {
  if (const char* env = std::getenv("WCDS_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed >= 1 &&
        static_cast<unsigned long>(parsed) <= kMaxThreads) {
      return static_cast<std::size_t>(parsed);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, kMaxThreads);
}

namespace {

// True while this thread is executing chunks of some parallel_for.  A nested
// parallel_for (a trial that itself measures dilation, say) runs inline on
// its lane instead of deadlocking or racing the pool's single job slot —
// determinism is unaffected because every index still runs exactly once.
thread_local bool t_in_parallel_region = false;

}  // namespace

// One parallel_for invocation.  Chunks are claimed from `next` with a
// fetch_add; each index runs exactly once on whichever lane claimed its
// chunk.  `failed` short-circuits remaining chunks after an exception.
struct ThreadPool::Job {
  std::atomic<std::size_t> next;
  std::size_t end;
  std::size_t grain;
  const std::function<void(std::size_t)>* fn;
  std::atomic<bool> failed{false};
  base::Mutex exception_mutex;
  std::exception_ptr exception WCDS_GUARDED_BY(exception_mutex);  // first failure
};

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_thread_count();
  WCDS_REQUIRE(threads <= kMaxThreads,
               "ThreadPool: " << threads << " threads exceed the ceiling of "
                              << kMaxThreads);
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const base::MutexLock lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::drain(Job& job) {
  t_in_parallel_region = true;
  while (!job.failed.load(std::memory_order_relaxed)) {
    const std::size_t first =
        job.next.fetch_add(job.grain, std::memory_order_relaxed);
    if (first >= job.end) break;
    const std::size_t last = std::min(first + job.grain, job.end);
    try {
      for (std::size_t i = first; i < last; ++i) (*job.fn)(i);
    } catch (...) {
      const base::MutexLock lock(job.exception_mutex);
      if (!job.failed.exchange(true, std::memory_order_relaxed)) {
        job.exception = std::current_exception();
      }
    }
  }
  t_in_parallel_region = false;
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  while (true) {
    Job* job = nullptr;
    {
      const base::MutexLock lock(mutex_);
      // Explicit predicate loop (not a wait-with-lambda): the guarded reads
      // stay in this annotated scope where the analysis can prove mutex_ is
      // held.
      while (!stop_ &&
             (job_ == nullptr || job_generation_ == seen_generation)) {
        wake_.wait(mutex_);
      }
      if (stop_) return;
      seen_generation = job_generation_;
      job = job_;
      ++workers_active_;
    }
    drain(*job);
    {
      const base::MutexLock lock(mutex_);
      --workers_active_;
    }
    done_.notify_one();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              std::size_t grain,
                              const std::function<void(std::size_t)>& fn) {
  WCDS_REQUIRE(grain >= 1, "parallel_for: grain must be >= 1");
  if (begin >= end) return;
  // Single chunk, workerless pool, or nested call: run inline, ascending —
  // this is the serial path the parallel one must match byte-for-byte.
  if (workers_.empty() || end - begin <= grain || t_in_parallel_region) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  Job job;
  job.next.store(begin, std::memory_order_relaxed);
  job.end = end;
  job.grain = grain;
  job.fn = &fn;
  {
    const base::MutexLock lock(mutex_);
    WCDS_REQUIRE_STATE(job_ == nullptr,
                       "parallel_for: reentrant call on the same pool");
    job_ = &job;
    ++job_generation_;
  }
  wake_.notify_all();
  drain(job);  // the caller is a lane too
  {
    const base::MutexLock lock(mutex_);
    while (workers_active_ != 0) done_.wait(mutex_);
    job_ = nullptr;
  }
  std::exception_ptr failure;
  {
    const base::MutexLock lock(job.exception_mutex);
    failure = job.exception;
  }
  if (failure) std::rethrow_exception(failure);
}

namespace {

std::atomic<ThreadPool*> g_pool_override{nullptr};

}  // namespace

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

ThreadPool& pool_for(std::size_t threads) {
  // Pools are keyed by the *requested* count: pool_for(0) re-reads the
  // environment only once, when its pool is first created, which is exactly
  // the "stop re-deriving the env per call" fix bench::run_trials needs.
  static base::Mutex mutex;
  // unique_ptr elements keep ThreadPool references stable as the cache
  // grows; destruction at exit joins the workers, like global_pool().
  static std::vector<std::pair<std::size_t, std::unique_ptr<ThreadPool>>> pools;
  const base::MutexLock lock(mutex);
  for (const auto& [key, pool] : pools) {
    if (key == threads) return *pool;
  }
  pools.emplace_back(threads, std::make_unique<ThreadPool>(threads));
  return *pools.back().second;
}

ThreadPool* set_global_pool(ThreadPool* pool) noexcept {
  return g_pool_override.exchange(pool);
}

void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const std::function<void(std::size_t)>& fn) {
  if (ThreadPool* pool = g_pool_override.load()) {
    pool->parallel_for(begin, end, grain, fn);
    return;
  }
  // Serial fast path that never materializes the pool: a one-thread
  // configuration (WCDS_THREADS=1), a range that fits one chunk, or a
  // nested call from inside a pool lane.
  if (begin >= end) return;
  if (end - begin <= grain || t_in_parallel_region ||
      default_thread_count() == 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  global_pool().parallel_for(begin, end, grain, fn);
}

}  // namespace wcds::parallel
