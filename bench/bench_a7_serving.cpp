// Experiment A7: service-centric traffic serving over the WCDS backbone.
//
// A7a pushes >= 2^20 uniform requests through the ServingEngine at n=8192
// (and a smaller n=2048 row) and reports end-to-end throughput, latency
// percentiles (virtual time, backoff included), the Bloom false-positive
// rate paid as extra probe hops, and the mean delivered stretch against BFS
// distances — the serving-layer analogue of T5's unicast table.
//
// A7b sweeps the Bloom bits/entry knob and checks the measured domain-level
// false-positive rate against the analytic (1 - e^{-kn/m})^k prediction.
//
// A7c sweeps the loss rate and shows what the per-hop retransmission policy
// buys: deliverability with the default 8 attempts/hop vs a single attempt.
//
// A7d re-serves one batch on 1/2/8-thread pools and asserts the outcome
// arrays are byte-identical — the determinism contract of serve_batch.
#include "bench_common.h"

#include <chrono>
#include <cstring>
#include <iostream>
#include <vector>

#include "bench_support/table.h"
#include "fault/plan.h"
#include "service/engine.h"
#include "wcds/algorithm2.h"

namespace {

using namespace wcds;

constexpr std::uint64_t kSeed = 1;
constexpr std::uint32_t kUniverse = 256;    // distinct service names
constexpr std::uint32_t kPerNode = 2;       // advertisements per node

struct Scenario {
  bench::Instance inst;
  core::Algorithm2Output wcds;
  service::ServiceRegistry registry{0};
};

const Scenario& scenario_for(std::uint32_t n) {
  static std::map<std::uint32_t, Scenario> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    Scenario sc;
    // Degree 16 keeps |S| (and the |S|^2 routing table) bounded as n grows.
    sc.inst = bench::connected_instance(n, 16.0, kSeed);
    sc.wcds = bench::build_with(sc.inst.g,
                                core::BuildAlgorithm::kAlgorithm2Central)
                  .algorithm2_output();
    sc.registry = service::uniform_registry(n, kUniverse, kPerNode, kSeed);
    it = cache.emplace(n, std::move(sc)).first;
  }
  return it->second;
}

void set_gauge(const std::string& name, double value) {
  if (obs::Recorder* rec = obs::global_recorder()) {
    rec->metrics().set(name, value);
  }
}

void print_a7a() {
  bench::banner(std::cout,
                "A7a: serving throughput and quality (deg = 16, " +
                    std::to_string(kUniverse) + " services, " +
                    std::to_string(kPerNode) + " per node)");
  bench::Table table({"n", "requests", "throughput req/s", "p50 lat",
                      "p95 lat", "bloom fp/req", "mean stretch",
                      "delivered"});
  for (const std::uint32_t n : {2048u, 8192u}) {
    const Scenario& sc = scenario_for(n);
    service::ServingOptions options;
    options.stretch_sample_stride = 4096;  // BFS per sample: keep it sparse
    const service::ServingEngine engine(sc.inst.g, sc.wcds, sc.registry,
                                        options);
    const std::size_t count = n >= 8192 ? (1u << 20) : (1u << 18);
    const auto requests = service::uniform_requests(sc.registry, count, 7);
    std::vector<service::Outcome> outcomes(requests.size());
    const auto start = std::chrono::steady_clock::now();
    const auto stats = engine.serve_batch(requests, outcomes);
    const auto stop = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    const double rps = static_cast<double>(count) / (ms / 1000.0);
    const double fp_per_req = static_cast<double>(stats.bloom_fp) /
                              static_cast<double>(stats.requests);
    table.add_row({std::to_string(n), bench::fmt_count(count),
                   bench::fmt(rps, 0), std::to_string(stats.latency_p50),
                   std::to_string(stats.latency_p95),
                   bench::fmt(fp_per_req, 4),
                   bench::fmt(stats.mean_stretch, 3),
                   bench::fmt(100.0 * stats.deliverability(), 1) + "%"});
    std::string key = "n";
    key += std::to_string(n);
    set_gauge("a7/serve_ms/" + key, ms);
    // Per-request cost, for the CI shape gate (n8192 / n2048 ratio): the
    // serving path should cost O(path length), not O(heads).
    set_gauge("a7/serve_ns_per_req/" + key,
              ms * 1e6 / static_cast<double>(count));
    set_gauge("a7/throughput_rps/" + key, rps);
    set_gauge("a7/latency_p50/" + key, stats.latency_p50);
    set_gauge("a7/latency_p95/" + key, stats.latency_p95);
    set_gauge("a7/bloom_fp_per_req/" + key, fp_per_req);
    set_gauge("a7/mean_stretch/" + key, stats.mean_stretch);
    set_gauge("a7/deliverability/" + key, stats.deliverability());
  }
  table.print(std::cout);
}

void print_a7b() {
  bench::banner(std::cout,
                "A7b: Bloom false-positive rate, measured vs (1-e^{-kn/m})^k "
                "(n = 2048)");
  bench::Table table({"bits/entry", "predicted", "measured", "ratio"});
  const Scenario& sc = scenario_for(2048);
  for (const std::uint32_t bpe : {4u, 8u, 12u, 16u}) {
    service::ServingOptions options;
    options.bloom.bits_per_entry = bpe;
    const service::ServingEngine engine(sc.inst.g, sc.wcds, sc.registry,
                                        options);
    const auto& router = engine.router();
    const std::size_t heads = router.heads().size();
    // Ground truth per (domain, service): does the domain really hold a
    // provider?  Bloom positives beyond those are the measured FP mass.
    std::vector<std::vector<bool>> truth(
        heads, std::vector<bool>(sc.registry.service_count(), false));
    for (NodeId u = 0; u < sc.inst.g.node_count(); ++u) {
      const std::uint32_t h = router.head_index(router.clusterhead(u));
      for (const service::ServiceId s : sc.registry.services_at(u)) {
        truth[h][s] = true;
      }
    }
    std::size_t negatives = 0;
    std::size_t false_positives = 0;
    for (service::ServiceId s = 0; s < sc.registry.service_count(); ++s) {
      std::size_t true_count = 0;
      for (std::size_t h = 0; h < heads; ++h) {
        if (truth[h][s]) ++true_count;
      }
      negatives += heads - true_count;
      for (const std::uint32_t h : engine.advertisers(s)) {
        if (!truth[h][s]) ++false_positives;
      }
    }
    const double measured =
        negatives == 0 ? 0.0
                       : static_cast<double>(false_positives) /
                             static_cast<double>(negatives);
    const double predicted = engine.predicted_fp_rate();
    table.add_row({std::to_string(bpe), bench::fmt(predicted, 4),
                   bench::fmt(measured, 4),
                   bench::fmt(predicted > 0 ? measured / predicted : 0.0,
                              2)});
    set_gauge("a7/fp_predicted/bpe" + std::to_string(bpe), predicted);
    set_gauge("a7/fp_measured/bpe" + std::to_string(bpe), measured);
  }
  table.print(std::cout);
}

void print_a7c() {
  bench::banner(std::cout,
                "A7c: deliverability vs loss rate, 8 attempts/hop vs 1 "
                "(n = 2048, 2^16 requests)");
  bench::Table table({"drop", "delivered (retries)", "retries/req",
                      "delivered (one-shot)"});
  const Scenario& sc = scenario_for(2048);
  const auto requests = service::uniform_requests(sc.registry, 1u << 16, 11);
  for (const double drop : {0.0, 0.05, 0.1, 0.2, 0.3}) {
    const fault::Plan plan = fault::Plan::lossy(drop, 31 + kSeed);
    service::ServingOptions retrying;
    retrying.faults = drop > 0.0 ? &plan : nullptr;
    service::ServingOptions oneshot = retrying;
    oneshot.max_attempts_per_hop = 1;
    const service::ServingEngine with_retries(sc.inst.g, sc.wcds,
                                              sc.registry, retrying);
    const service::ServingEngine without(sc.inst.g, sc.wcds, sc.registry,
                                         oneshot);
    service::BatchStats rs, os;
    (void)with_retries.serve_batch(requests, &rs);
    (void)without.serve_batch(requests, &os);
    const std::string key = std::to_string(static_cast<int>(drop * 100));
    table.add_row({key + "%",
                   bench::fmt(100.0 * rs.deliverability(), 2) + "%",
                   bench::fmt(static_cast<double>(rs.retries) /
                                  static_cast<double>(rs.requests),
                              3),
                   bench::fmt(100.0 * os.deliverability(), 2) + "%"});
    set_gauge("a7/deliverability/retries_drop" + key, rs.deliverability());
    set_gauge("a7/deliverability/oneshot_drop" + key, os.deliverability());
  }
  table.print(std::cout);
}

void print_a7d() {
  bench::banner(std::cout,
                "A7d: serve_batch determinism across thread counts "
                "(n = 2048, 10% loss)");
  bench::Table table({"threads", "identical to 1-thread run"});
  const Scenario& sc = scenario_for(2048);
  const fault::Plan plan = fault::Plan::lossy(0.10, 17);
  service::ServingOptions options;
  options.faults = &plan;
  const service::ServingEngine engine(sc.inst.g, sc.wcds, sc.registry,
                                      options);
  const auto requests = service::uniform_requests(sc.registry, 1u << 17, 13);
  std::vector<service::Outcome> reference;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    parallel::ThreadPool pool(threads);
    parallel::ScopedPool scoped(pool);
    auto outcomes = engine.serve_batch(requests);
    bool identical = true;
    if (threads == 1) {
      reference = std::move(outcomes);
    } else {
      identical = outcomes.size() == reference.size() &&
                  std::memcmp(outcomes.data(), reference.data(),
                              reference.size() *
                                  sizeof(service::Outcome)) == 0;
    }
    table.add_row({std::to_string(threads), identical ? "yes" : "NO"});
    set_gauge("a7/identical/threads" + std::to_string(threads),
              identical ? 1.0 : 0.0);
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: 100% delivery on a perfect radio and "
               ">= 99% under 10% loss\n(8 attempts/hop puts per-hop failure "
               "at 1e-8); the one-shot column collapses\nwith the loss rate. "
               " Measured Bloom FP tracks the analytic curve, with a\nmodest "
               "excess at high bits/entry where per-domain filters are a few "
               "hundred\nbits and discretization dominates; the 'identical' "
               "column must read yes at\nevery thread count.\n";
}

void print_tables() {
  print_a7a();
  print_a7b();
  print_a7c();
  print_a7d();
}

void BM_ServeBatch(benchmark::State& state) {
  const Scenario& sc = scenario_for(static_cast<std::uint32_t>(state.range(0)));
  const service::ServingEngine engine(sc.inst.g, sc.wcds, sc.registry);
  const auto requests = service::uniform_requests(sc.registry, 1u << 16, 3);
  std::vector<service::Outcome> outcomes(requests.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.serve_batch(requests, outcomes));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(requests.size()));
}
BENCHMARK(BM_ServeBatch)->Arg(2048)->Arg(8192)->Unit(benchmark::kMillisecond);

void BM_ServeSingle(benchmark::State& state) {
  const Scenario& sc = scenario_for(2048);
  const service::ServingEngine engine(sc.inst.g, sc.wcds, sc.registry);
  const auto requests = service::uniform_requests(sc.registry, 4096, 5);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.serve(requests[i % requests.size()], i));
    ++i;
  }
}
BENCHMARK(BM_ServeSingle);

}  // namespace

WCDS_BENCH_MAIN(print_tables)
