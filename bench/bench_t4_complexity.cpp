// Experiment T4 (Theorem 12 + Section 4.1): distributed message and time
// complexity.
//
// Algorithm I: O(n) time, O(n log n) messages (leader election dominates).
// Algorithm II: O(n) time, O(n) messages (fully localized).
// The table reports measured transmissions, transmissions/n, and
// transmissions/(n log2 n), whose trends expose the asymptotic shape.
// T4c reports what the simulation of those messages costs: wall time per
// delivered copy and heap allocations per node.
#include "bench_common.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <iostream>

#include "bench_support/alloc_counter.h"
#include "bench_support/table.h"
#include "protocols/algorithm1_protocol.h"
#include "protocols/algorithm2_protocol.h"

namespace {

using namespace wcds;

// T4c: cost of one simulated delivery.  Each cell times the raw protocol
// entrypoint (unit delays, audits off, no recorder) five times and reports
// the median run divided by its delivered copies, plus the allocations one
// run makes per node.  Expected degree 16, the whole-path benchmark's
// density.  Not gated: per-delivery time grows with n through cache misses
// alone (the working set outgrows L2), even though the work per delivery is
// constant.
void print_delivery_cost_table() {
  obs::Recorder* const ambient = obs::global_recorder();
  obs::set_global_recorder(nullptr);
  bench::banner(std::cout,
                "T4c: simulation cost per delivery (deg = 16, median of 5)");
  bench::Table table({"n", "alg", "deliveries", "ms/run", "ns/delivery",
                      "allocs/node"});
  for (const std::uint32_t n : {256u, 1024u, 4096u, 16384u}) {
    const auto inst = bench::connected_instance(n, 16.0, 1);
    for (const bool alg1 : {true, false}) {
      constexpr int kRuns = 5;
      std::array<double, kRuns> ms{};
      std::uint64_t deliveries = 0;
      std::uint64_t allocations = 0;
      for (double& sample : ms) {
        bench::AllocationCounter counter;
        const auto start = std::chrono::steady_clock::now();
        // Raw entrypoints on purpose: the facade's list extraction is not
        // part of the protocol's message cost.
        if (alg1) {
          // wcds-lint: allow(facade-only)
          deliveries = protocols::run_algorithm1(inst.g).stats.deliveries;
        } else {
          // wcds-lint: allow(facade-only)
          deliveries = protocols::run_algorithm2(inst.g).stats.deliveries;
        }
        const auto stop = std::chrono::steady_clock::now();
        allocations = counter.stop();
        sample = std::chrono::duration<double, std::milli>(stop - start).count();
      }
      std::sort(ms.begin(), ms.end());
      const double median_ms = ms[kRuns / 2];
      table.add_row({std::to_string(n), alg1 ? "alg1" : "alg2",
                     bench::fmt_count(deliveries), bench::fmt(median_ms, 2),
                     bench::fmt(median_ms * 1e6 / static_cast<double>(deliveries),
                                1),
                     bench::fmt(static_cast<double>(allocations) / n, 1)});
    }
  }
  table.print(std::cout);
  obs::set_global_recorder(ambient);
}

void print_tables() {
  bench::banner(std::cout, "T4a: message complexity vs n (deg = 10, 3 seeds)");
  bench::Table table({"n", "alg", "msgs", "msgs/n", "msgs/(n lg n)", "time"});
  struct SeedCosts {
    double m1 = 0, m2 = 0, t1 = 0, t2 = 0;
  };
  for (const std::uint32_t n : {125u, 250u, 500u, 1000u, 2000u}) {
    const int kSeeds = 3;
    // Independent seeds run across the thread pool; the ordered merge keeps
    // the printed averages identical to a serial run.
    const auto trials = bench::run_trials(kSeeds, [&](std::size_t trial) {
      const auto inst = bench::connected_instance(n, 10.0, trial + 1);
      const auto run1 =
          bench::build_with(inst.g, core::BuildAlgorithm::kAlgorithm1Protocol);
      const auto run2 =
          bench::build_with(inst.g, core::BuildAlgorithm::kAlgorithm2Protocol);
      return SeedCosts{static_cast<double>(run1.stats.transmissions),
                       static_cast<double>(run2.stats.transmissions),
                       static_cast<double>(run1.stats.completion_time),
                       static_cast<double>(run2.stats.completion_time)};
    });
    double m1 = 0, m2 = 0, t1 = 0, t2 = 0;
    for (const SeedCosts& costs : trials) {
      m1 += costs.m1 / kSeeds;
      m2 += costs.m2 / kSeeds;
      t1 += costs.t1 / kSeeds;
      t2 += costs.t2 / kSeeds;
    }
    const double lg = std::log2(static_cast<double>(n));
    table.add_row({std::to_string(n), "alg1", bench::fmt(m1, 0),
                   bench::fmt(m1 / n, 2), bench::fmt(m1 / (n * lg), 3),
                   bench::fmt(t1, 0)});
    table.add_row({std::to_string(n), "alg2", bench::fmt(m2, 0),
                   bench::fmt(m2 / n, 2), bench::fmt(m2 / (n * lg), 3),
                   bench::fmt(t2, 0)});
  }
  table.print(std::cout);

  bench::banner(std::cout, "T4b: per-message-type breakdown (n = 1000)");
  const auto inst = bench::connected_instance(1000, 10.0, 1);
  const auto run1 =
      bench::build_with(inst.g, core::BuildAlgorithm::kAlgorithm1Protocol);
  const auto run2 =
      bench::build_with(inst.g, core::BuildAlgorithm::kAlgorithm2Protocol);
  bench::Table breakdown({"algorithm", "message", "count"});
  for (const auto& [type, count] : run1.stats.per_type) {
    breakdown.add_row({"alg1", protocols::algorithm1_message_name(type),
                       bench::fmt_count(count)});
  }
  for (const auto& [type, count] : run2.stats.per_type) {
    breakdown.add_row({"alg2", protocols::algorithm2_message_name(type),
                       bench::fmt_count(count)});
  }
  breakdown.print(std::cout);
  std::cout << "\nExpected shape: alg2's msgs/n is flat (O(n) messages; "
               "Theorem 12); alg1's\nmsgs/n grows slowly while "
               "msgs/(n lg n) is roughly flat (leader election's\nO(n log "
               "n)); both completion times grow with network diameter "
               "~sqrt(n).\n";

  print_delivery_cost_table();
}

void BM_DistributedAlgorithm1(benchmark::State& state) {
  const auto inst = bench::connected_instance(
      static_cast<std::uint32_t>(state.range(0)), 10.0, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocols::run_algorithm1(inst.g));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DistributedAlgorithm1)->Arg(250)->Arg(500)->Arg(1000)->Complexity();

void BM_DistributedAlgorithm2(benchmark::State& state) {
  const auto inst = bench::connected_instance(
      static_cast<std::uint32_t>(state.range(0)), 10.0, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocols::run_algorithm2(inst.g));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DistributedAlgorithm2)->Arg(250)->Arg(500)->Arg(1000)->Complexity();

}  // namespace

WCDS_BENCH_MAIN(print_tables)
