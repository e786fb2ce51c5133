// Thread-pool unit tests plus the determinism contract the analysis layer
// relies on: running under 1, 2 or 8 threads produces byte-identical
// results (docs/PERFORMANCE.md).
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "graph/diameter.h"
#include "parallel/thread_pool.h"
#include "spanner/analysis.h"
#include "test_util.h"
#include "wcds/algorithm2.h"
#include "wcds/verify.h"

namespace {

using namespace wcds;

// Exact bit equality: doubles compared through their representation, so a
// "close enough" reassociated sum fails the test.
std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

TEST(ThreadPool, ExecutesEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 4u}) {
    for (const std::size_t grain : {1u, 3u, 64u, 1000u}) {
      parallel::ThreadPool pool(threads);
      std::vector<std::atomic<int>> hits(257);
      pool.parallel_for(0, hits.size(), grain, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads
                                     << " grain=" << grain << " i=" << i;
      }
    }
  }
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  parallel::ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, 1, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, PropagatesTheFirstException) {
  parallel::ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 100, 1,
                                 [](std::size_t i) {
                                   if (i == 37) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // The pool survives a throwing job.
  std::atomic<int> count{0};
  pool.parallel_for(0, 10, 1, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  parallel::ThreadPool pool(2);
  parallel::ScopedPool scoped(pool);
  std::vector<std::atomic<int>> hits(64);
  parallel::parallel_for(0, 8, 1, [&](std::size_t outer) {
    // The nested call must not deadlock on the same pool: it runs inline
    // on this lane.
    parallel::parallel_for(0, 8, 1, [&](std::size_t inner) {
      hits[outer * 8 + inner].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "i=" << i;
  }
}

TEST(ThreadPool, WcdsThreadsEnvControlsDefaultCount) {
  ASSERT_EQ(setenv("WCDS_THREADS", "3", 1), 0);
  EXPECT_EQ(parallel::default_thread_count(), 3u);
  ASSERT_EQ(setenv("WCDS_THREADS", "1", 1), 0);
  EXPECT_EQ(parallel::default_thread_count(), 1u);
  // Garbage and non-positive values fall back to hardware defaults (>= 1).
  ASSERT_EQ(setenv("WCDS_THREADS", "0", 1), 0);
  EXPECT_GE(parallel::default_thread_count(), 1u);
  ASSERT_EQ(setenv("WCDS_THREADS", "banana", 1), 0);
  EXPECT_GE(parallel::default_thread_count(), 1u);
  ASSERT_EQ(unsetenv("WCDS_THREADS"), 0);
  EXPECT_GE(parallel::default_thread_count(), 1u);
}

// Thread counts from outside input are bounded: a pool above the ceiling is
// rejected before it starts a thread, and an over-ceiling WCDS_THREADS reads
// as unparseable.  Only the rejections run here; no large pool starts.
TEST(ThreadPool, RejectsCountsAboveTheCeiling) {
  EXPECT_THROW(parallel::ThreadPool(parallel::kMaxThreads + 1),
               std::invalid_argument);
  EXPECT_THROW(parallel::ThreadPool(SIZE_MAX), std::invalid_argument);
  EXPECT_THROW((void)parallel::pool_for(SIZE_MAX), std::invalid_argument);
  for (const char* over : {"257", "100000", "18446744073709551615",
                           "99999999999999999999999"}) {
    ASSERT_EQ(setenv("WCDS_THREADS", over, 1), 0);
    EXPECT_LE(parallel::default_thread_count(), parallel::kMaxThreads)
        << over;
  }
  ASSERT_EQ(setenv("WCDS_THREADS", "2", 1), 0);
  EXPECT_EQ(parallel::default_thread_count(), 2u);
  ASSERT_EQ(unsetenv("WCDS_THREADS"), 0);
}

// The contract the analysis layer builds on: dilation and distance metrics
// are byte-identical no matter how many lanes computed them, because every
// source's floating-point accumulation stays on one lane and the cross-
// source merge order is fixed.
TEST(ParallelDeterminism, AnalysesAreByteIdenticalAcrossThreadCounts) {
  const auto inst = wcds::testing::connected_udg(220, 9.0, 5);
  const auto wcds = core::algorithm2(inst.g).result;
  const auto sp = core::extract_spanner(inst.g, wcds);

  struct Observed {
    std::uint64_t max_ratio, mean_ratio;
    std::int64_t max_slack;
    std::uint64_t pairs;
    HopCount diameter;
    std::uint64_t apl;
    std::vector<std::uint64_t> buckets;
  };
  auto observe = [&]() {
    const auto dilation = spanner::topological_dilation(inst.g, sp);
    const auto dist = spanner::topological_stretch_distribution(inst.g, sp);
    const auto metrics = graph::distance_metrics(inst.g);
    return Observed{bits(dilation.max_ratio),
                    bits(dilation.mean_ratio),
                    dilation.max_slack,
                    dilation.pairs,
                    metrics.diameter,
                    bits(metrics.average_path_length),
                    dist.buckets};
  };

  std::vector<Observed> runs;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    parallel::ThreadPool pool(threads);
    parallel::ScopedPool scoped(pool);
    runs.push_back(observe());
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[0].max_ratio, runs[i].max_ratio);
    EXPECT_EQ(runs[0].mean_ratio, runs[i].mean_ratio);
    EXPECT_EQ(runs[0].max_slack, runs[i].max_slack);
    EXPECT_EQ(runs[0].pairs, runs[i].pairs);
    EXPECT_EQ(runs[0].diameter, runs[i].diameter);
    EXPECT_EQ(runs[0].apl, runs[i].apl);
    EXPECT_EQ(runs[0].buckets, runs[i].buckets);
  }
}

}  // namespace
