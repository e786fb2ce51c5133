// Service-centric serving over the WCDS backbone (src/service/): Bloom
// summaries never lie negatively and track the analytic FP rate; resolution
// agrees with a flooding oracle (a delivered request always lands on a true
// provider, at >= BFS distance); Bloom false positives cost probe hops but
// never misdeliver; batches are byte-identical at any thread count; and a
// 10%-loss plan still serves >= 99% of requests thanks to per-hop retries.
#include "service/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <fstream>
#include <limits>
#include <vector>

#include "check/audit.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "graph/bfs.h"
#include "obs/recorder.h"
#include "parallel/thread_pool.h"
#include "service/bloom.h"
#include "service/registry.h"
#include "test_util.h"
#include "wcds/algorithm2.h"

namespace wcds::service {
namespace {

struct Scenario {
  testing::Instance inst;
  core::Algorithm2Output wcds;
  ServiceRegistry registry{0};
};

Scenario make_scenario(std::uint32_t n, double degree, std::uint64_t seed,
                       std::uint32_t universe, std::uint32_t per_node) {
  Scenario sc;
  sc.inst = testing::connected_udg(n, degree, seed);
  sc.wcds = core::algorithm2(sc.inst.g);
  sc.registry = uniform_registry(n, universe, per_node, seed * 31 + 7);
  return sc;
}

// ---------------------------------------------------------------------------
// Bloom filter

TEST(Bloom, NoFalseNegativesAndDeterministic) {
  BloomParams params;
  params.bits_per_entry = 10;
  BloomFilter a(params, 500);
  BloomFilter b(params, 500);
  for (std::uint64_t k = 1; k <= 500; ++k) {
    a.insert(k * 0x9E3779B97F4A7C15ULL);
    b.insert(k * 0x9E3779B97F4A7C15ULL);
  }
  for (std::uint64_t k = 1; k <= 500; ++k) {
    EXPECT_TRUE(a.may_contain(k * 0x9E3779B97F4A7C15ULL));
  }
  // Same params + same keys => the same answers on any probe.
  for (std::uint64_t probe = 0; probe < 10'000; ++probe) {
    ASSERT_EQ(a.may_contain(probe), b.may_contain(probe));
  }
}

TEST(Bloom, MeasuredFpRateTracksPrediction) {
  BloomParams params;
  params.bits_per_entry = 10;
  BloomFilter bloom(params, 2000);
  for (std::uint64_t k = 0; k < 2000; ++k) {
    bloom.insert(BloomFilter::key_of("svc-" + std::to_string(k)));
  }
  std::size_t fp = 0;
  constexpr std::size_t kProbes = 50'000;
  for (std::size_t i = 0; i < kProbes; ++i) {
    if (bloom.may_contain(BloomFilter::key_of("absent-" + std::to_string(i)))) {
      ++fp;
    }
  }
  const double measured = static_cast<double>(fp) / kProbes;
  const double predicted = bloom.predicted_fp_rate();  // ~0.8% at 10 b/e
  EXPECT_GT(predicted, 0.0);
  EXPECT_LT(measured, predicted * 3.0 + 1e-3);
  EXPECT_GT(measured, predicted / 3.0 - 1e-3);
}

TEST(Bloom, KeyOfDistinguishesNames) {
  EXPECT_NE(BloomFilter::key_of("svc-1"), BloomFilter::key_of("svc-2"));
  EXPECT_EQ(BloomFilter::key_of("svc-1"), BloomFilter::key_of("svc-1"));
}

// ---------------------------------------------------------------------------
// Registry

TEST(Registry, AdvertisementsAreSortedDedupedBidirectional) {
  ServiceRegistry reg(4);
  const ServiceId s0 = reg.intern("printing");
  const ServiceId s1 = reg.intern("storage");
  EXPECT_EQ(reg.intern("printing"), s0);  // idempotent intern
  reg.advertise(2, s1);
  reg.advertise(2, s0);
  reg.advertise(2, s0);  // idempotent advertise
  reg.advertise(0, s1);
  EXPECT_TRUE(reg.provides(2, s0));
  EXPECT_FALSE(reg.provides(1, s0));
  EXPECT_EQ(reg.advertisement_count(), 3u);
  const auto at2 = reg.services_at(2);
  ASSERT_EQ(at2.size(), 2u);
  EXPECT_LT(at2[0], at2[1]);
  const auto prov1 = reg.providers_of(s1);
  ASSERT_EQ(prov1.size(), 2u);
  EXPECT_EQ(prov1[0], 0u);
  EXPECT_EQ(prov1[1], 2u);
  EXPECT_EQ(reg.find("storage"), s1);
  EXPECT_EQ(reg.find("absent"), kInvalidService);
}

TEST(Registry, NodeQueriesRejectOutOfRangeNodes) {
  ServiceRegistry reg(3);
  const ServiceId s = reg.intern("printing");
  reg.advertise(2, s);
  EXPECT_TRUE(reg.provides(2, s));
  EXPECT_THROW((void)reg.provides(3, s), std::out_of_range);
  EXPECT_THROW((void)reg.services_at(3), std::out_of_range);
  EXPECT_THROW(reg.advertise(3, s), std::out_of_range);
}

TEST(Registry, UniformRegistryIsDeterministicAndWellFormed) {
  const auto a = uniform_registry(64, 16, 3, 99);
  const auto b = uniform_registry(64, 16, 3, 99);
  EXPECT_EQ(a.advertisement_count(), 64u * 3u);
  for (NodeId u = 0; u < 64; ++u) {
    const auto sa = a.services_at(u);
    const auto sb = b.services_at(u);
    ASSERT_EQ(sa.size(), 3u);
    EXPECT_TRUE(std::equal(sa.begin(), sa.end(), sb.begin()));
  }
}

// ---------------------------------------------------------------------------
// Construction contract

TEST(Serving, RejectsDominatorListsThatDoNotCoverTheGraph) {
  // An Algorithm I build leaves the lists empty; the engine's router must
  // name the problem instead of reading rows that do not exist.
  const auto sc = make_scenario(120, 10.0, 4, 16, 2);
  const core::DominatorLists none;
  const core::Algorithm2View view(sc.wcds.result, none);
  EXPECT_THROW(ServingEngine(sc.inst.g, view, sc.registry),
               std::invalid_argument);
}

// The serving engine and the protocol fault injector read the same plans, so
// they reject the same ones: a drop of 1.5, or a NaN that every `p > 0`
// test would read as a perfect radio.
TEST(Serving, RejectsPlansTheInjectorRejects) {
  const auto sc = make_scenario(120, 10.0, 4, 16, 2);
  const std::size_t n = sc.inst.g.node_count();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<fault::Plan> bad(6);
  bad[0].drop = 1.5;
  bad[1].drop = nan;
  bad[2].duplicate = nan;
  bad[3].duplicate = -0.25;
  bad[4].link_overrides.push_back({/*link_slot=*/0, /*drop=*/nan, 0.0});
  bad[5].crash(static_cast<NodeId>(n), 1, 5);
  for (std::size_t i = 0; i < bad.size(); ++i) {
    EXPECT_THROW(fault::Injector(bad[i], n), std::invalid_argument) << i;
    ServingOptions options;
    options.faults = &bad[i];
    EXPECT_THROW(ServingEngine(sc.inst.g, sc.wcds, sc.registry, options),
                 std::invalid_argument)
        << i;
  }
}

// serve() indexes per-node and per-service rows with the request's fields,
// so a source or a service past the end is rejected in every build, also
// from the workers of serve_batch.
TEST(Serving, RejectsOutOfRangeRequests) {
  const auto sc = make_scenario(120, 10.0, 4, 16, 2);
  const ServingEngine engine(sc.inst.g, sc.wcds, sc.registry);
  const auto n = static_cast<NodeId>(sc.inst.g.node_count());
  const auto services = static_cast<ServiceId>(sc.registry.service_count());
  const std::vector<Request> bad{
      {n, 0}, {kInvalidNode, 0}, {0, services}, {0, kInvalidService}};
  const auto good = uniform_requests(sc.registry, 3000, 5);
  for (const Request& request : bad) {
    EXPECT_THROW((void)engine.serve(request, 0), std::out_of_range);
    std::vector<Request> batch = good;
    batch[2500] = request;
    for (const std::size_t threads : {1u, 2u}) {
      parallel::ThreadPool pool(threads);
      parallel::ScopedPool scoped(pool);
      EXPECT_THROW((void)engine.serve_batch(batch), std::out_of_range)
          << threads << " threads";
    }
  }
}

// ---------------------------------------------------------------------------
// Resolution vs the flooding oracle

TEST(Serving, DeliversOnlyToTrueProvidersAtBfsDistanceOrMore) {
  const auto sc = make_scenario(300, 12.0, 5, 48, 2);
  const ServingEngine engine(sc.inst.g, sc.wcds, sc.registry);
  const auto requests = uniform_requests(sc.registry, 4000, 17);
  BatchStats stats;
  const auto outcomes = engine.serve_batch(requests, &stats);

  EXPECT_EQ(stats.deliverability(), 1.0);  // perfect radio, provided services
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& out = outcomes[i];
    ASSERT_EQ(out.delivered, 1u);
    // Flooding oracle: the provider the engine picked must really advertise
    // the service (Bloom false positives may add probes, never deliveries).
    ASSERT_TRUE(sc.registry.provides(out.provider, requests[i].service));
    if (out.resolution == Resolution::kLocal) {
      EXPECT_EQ(out.provider, requests[i].src);
      EXPECT_EQ(out.hops, 0u);
      EXPECT_EQ(out.latency, 0u);
    } else {
      // No route beats the BFS distance to the chosen provider.
      const auto d =
          graph::hop_distance(sc.inst.g, requests[i].src, out.provider);
      EXPECT_GE(out.hops, d);
      if (out.resolution == Resolution::kNeighbor) {
        EXPECT_EQ(out.hops, 1u);
        EXPECT_TRUE(sc.inst.g.has_edge(requests[i].src, out.provider));
      }
    }
  }
}

TEST(Serving, UnprovidedServiceReportsNoProviderWithoutMisdelivery) {
  auto sc = make_scenario(150, 10.0, 3, 24, 2);
  const ServiceId ghost = sc.registry.intern("nobody-provides-this");
  const ServingEngine engine(sc.inst.g, sc.wcds, sc.registry);
  for (NodeId src = 0; src < 20; ++src) {
    const Outcome out = engine.serve({src, ghost}, src);
    EXPECT_EQ(out.delivered, 0u);
    EXPECT_EQ(out.provider, kInvalidNode);
    EXPECT_EQ(out.resolution, Resolution::kNoProvider);
  }
}

TEST(Serving, TinyBloomForcesFalsePositivesButNeverMisdelivers) {
  const auto sc = make_scenario(400, 10.0, 11, 96, 1);
  ServingOptions options;
  options.bloom.bits_per_entry = 1;  // FP rate ~0.63: probes galore
  const ServingEngine engine(sc.inst.g, sc.wcds, sc.registry, options);
  const auto requests = uniform_requests(sc.registry, 2000, 29);
  BatchStats stats;
  const auto outcomes = engine.serve_batch(requests, &stats);
  EXPECT_GT(stats.bloom_fp, 0u);
  EXPECT_EQ(stats.deliverability(), 1.0);  // perfect radio: FP costs probes
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(sc.registry.provides(outcomes[i].provider,
                                     requests[i].service));
  }
}

// The engine's Bloom-positive domain lists against filters rebuilt here by
// the engine's sizing rule: one filter per domain, sized to and filled with
// the domain's distinct advertised services.  advertisers(s) must be the
// heads whose filter may_contain the key of s, in head order.
void expect_advertisers_match_rebuilt_filters(const Scenario& sc,
                                              const ServingOptions& options,
                                              std::size_t min_size_classes) {
  const ServingEngine engine(sc.inst.g, sc.wcds, sc.registry, options);
  const auto& router = engine.router();
  const std::size_t heads = router.heads().size();
  std::vector<std::vector<ServiceId>> domain_services(heads);
  for (NodeId u = 0; u < sc.inst.g.node_count(); ++u) {
    auto& row = domain_services[router.head_index(router.clusterhead(u))];
    for (const ServiceId s : sc.registry.services_at(u)) row.push_back(s);
  }
  std::vector<BloomFilter> filters;
  std::vector<std::size_t> sizes;
  for (auto& row : domain_services) {
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    BloomFilter& filter = filters.emplace_back(options.bloom, row.size());
    for (const ServiceId s : row) filter.insert(sc.registry.key(s));
    sizes.push_back(filter.bit_count());
  }
  std::sort(sizes.begin(), sizes.end());
  const auto classes = static_cast<std::size_t>(
      std::unique(sizes.begin(), sizes.end()) - sizes.begin());
  EXPECT_GE(classes, min_size_classes);

  std::size_t false_positives = 0;
  for (ServiceId s = 0; s < sc.registry.service_count(); ++s) {
    std::vector<std::uint32_t> want;
    for (std::uint32_t h = 0; h < heads; ++h) {
      if (!filters[h].may_contain(sc.registry.key(s))) continue;
      want.push_back(h);
      if (!std::binary_search(domain_services[h].begin(),
                              domain_services[h].end(), s)) {
        ++false_positives;
      }
    }
    EXPECT_EQ(testing::to_vector(engine.advertisers(s)), want)
        << "service " << s;
  }
  EXPECT_GT(false_positives, 0u);  // the lists carry false positives too
}

TEST(Serving, AdvertisersAreTheHeadsWhoseFilterMayContainTheKey) {
  // Default parameters: one bit count per distinct-service count band.
  const auto sc = make_scenario(1200, 12.0, 5, 256, 2);
  expect_advertisers_match_rebuilt_filters(sc, ServingOptions{}, 3);
}

TEST(Serving, AdvertisersMatchRebuiltFiltersUnderHeavyFalsePositives) {
  // Two bits per entry and three fixed probes: 64-bit filters for domains
  // with up to 32 distinct services, 128-bit ones above, so one key probes
  // different positions in different domains.
  const auto sc = make_scenario(1200, 16.0, 9, 256, 4);
  ServingOptions options;
  options.bloom.bits_per_entry = 2;
  options.bloom.hashes = 3;
  expect_advertisers_match_rebuilt_filters(sc, options, 2);
}

// A universe of 1000 services and 3 per node: a node's 128-bit
// neighbor-service summary has about a third of its bits set, so most bits
// a request tests are set by some other service.  Every request's neighbor
// step must still match a brute-force search for the smallest adjacent
// provider.
TEST(Serving, NeighborStepMatchesBruteForceUnderSummaryCollisions) {
  const auto sc = make_scenario(2000, 16.0, 3, 1000, 3);
  const ServingEngine engine(sc.inst.g, sc.wcds, sc.registry);
  const auto requests = uniform_requests(sc.registry, 20000, 5);
  std::size_t neighbor = 0;
  std::size_t collided = 0;  // no adjacent provider, but the bit is set
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto [src, s] = requests[i];
    const Outcome out = engine.serve(requests[i], i);
    if (sc.registry.provides(src, s)) {
      ASSERT_EQ(out.resolution, Resolution::kLocal) << "request " << i;
      continue;
    }
    NodeId smallest = kInvalidNode;
    bool bit_set = false;
    for (const NodeId v : sc.inst.g.neighbors(src)) {
      if (smallest == kInvalidNode && sc.registry.provides(v, s)) smallest = v;
      for (const ServiceId t : sc.registry.services_at(v)) {
        bit_set = bit_set || t % 128 == s % 128;
      }
    }
    if (smallest != kInvalidNode) {
      ++neighbor;
      ASSERT_EQ(out.resolution, Resolution::kNeighbor) << "request " << i;
      ASSERT_EQ(out.provider, smallest) << "request " << i;
      ASSERT_EQ(out.hops, 1u) << "request " << i;
    } else {
      ASSERT_NE(out.resolution, Resolution::kNeighbor) << "request " << i;
      ASSERT_NE(out.resolution, Resolution::kLocal) << "request " << i;
      ASSERT_EQ(out.delivered, 1u) << "request " << i;
      if (bit_set) ++collided;
    }
  }
  EXPECT_GT(neighbor, 400u);
  EXPECT_GT(collided, 2500u);
}

TEST(Serving, IntraDomainHopsMatchTheBackboneShape) {
  const auto sc = make_scenario(200, 12.0, 7, 32, 2);
  const ServingEngine engine(sc.inst.g, sc.wcds, sc.registry);
  const auto& router = engine.router();
  const auto requests = uniform_requests(sc.registry, 1500, 43);
  const auto outcomes = engine.serve_batch(requests);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].resolution != Resolution::kIntraDomain) continue;
    // src -> head (unless src is the head), then head -> provider (unless
    // the head provides it itself).
    const NodeId head = router.clusterhead(requests[i].src);
    const std::uint32_t expected = (requests[i].src != head ? 1u : 0u) +
                                   (outcomes[i].provider != head ? 1u : 0u);
    EXPECT_EQ(outcomes[i].hops, expected);
  }
}

// ---------------------------------------------------------------------------
// Determinism

TEST(Serving, BatchIsByteIdenticalAcrossThreadCounts) {
  const auto sc = make_scenario(300, 12.0, 13, 48, 2);
  fault::Plan plan = fault::Plan::lossy(0.10, 101);
  ServingOptions options;
  options.faults = &plan;
  const ServingEngine engine(sc.inst.g, sc.wcds, sc.registry, options);
  const auto requests = uniform_requests(sc.registry, 20'000, 59);

  std::vector<std::vector<Outcome>> runs;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    parallel::ThreadPool pool(threads);
    parallel::ScopedPool scoped(pool);
    runs.push_back(engine.serve_batch(requests));
  }
  ASSERT_EQ(runs[0].size(), requests.size());
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    EXPECT_EQ(std::memcmp(runs[r].data(), runs[0].data(),
                          runs[0].size() * sizeof(Outcome)),
              0);
  }
}

TEST(Serving, UniformRequestsArePureFunctionsOfSeed) {
  const auto reg = uniform_registry(100, 20, 2, 4);
  const auto a = uniform_requests(reg, 500, 77);
  const auto b = uniform_requests(reg, 500, 77);
  const auto c = uniform_requests(reg, 500, 78);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(Request)), 0);
  EXPECT_NE(std::memcmp(a.data(), c.data(), a.size() * sizeof(Request)), 0);
}

// ---------------------------------------------------------------------------
// Faults

TEST(Serving, TenPercentLossStillServesAlmostEverything) {
  // ISSUE acceptance: >= 99% deliverability under a 10% loss plan, across 8
  // seeds, on audit-clean backbones.  Per-hop failure after 8 attempts is
  // 0.1^8 = 1e-8, so the only realistic loss is a multi-hop coincidence.
  std::uint64_t delivered = 0;
  std::uint64_t total = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto sc = make_scenario(200, 11.0, seed, 32, 2);
    check::audit_invariants(sc.inst.g, sc.wcds.result);
    fault::Plan plan = fault::Plan::lossy(0.10, seed * 1000 + 1);
    ServingOptions options;
    options.faults = &plan;
    const ServingEngine engine(sc.inst.g, sc.wcds, sc.registry, options);
    const auto requests = uniform_requests(sc.registry, 2000, seed);
    BatchStats stats;
    const auto outcomes = engine.serve_batch(requests, &stats);
    delivered += stats.delivered;
    total += stats.requests;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (outcomes[i].delivered != 0u) {
        ASSERT_TRUE(sc.registry.provides(outcomes[i].provider,
                                         requests[i].service));
      }
    }
  }
  EXPECT_GE(static_cast<double>(delivered) / static_cast<double>(total),
            0.99);
}

TEST(Serving, LossMakesRetriesNotLossesUntilAttemptsRunOut) {
  const auto sc = make_scenario(200, 11.0, 19, 32, 2);
  fault::Plan plan = fault::Plan::lossy(0.30, 7);
  ServingOptions retrying;
  retrying.faults = &plan;
  ServingOptions oneshot;
  oneshot.faults = &plan;
  oneshot.max_attempts_per_hop = 1;
  const ServingEngine with_retries(sc.inst.g, sc.wcds, sc.registry, retrying);
  const ServingEngine without(sc.inst.g, sc.wcds, sc.registry, oneshot);
  const auto requests = uniform_requests(sc.registry, 3000, 23);
  BatchStats rs, os;
  (void)with_retries.serve_batch(requests, &rs);
  (void)without.serve_batch(requests, &os);
  EXPECT_GT(rs.retries, 0u);
  EXPECT_EQ(os.retries, 0u);  // one attempt per hop: failures drop instantly
  EXPECT_GT(rs.deliverability(), 0.99);
  EXPECT_LT(os.deliverability(), rs.deliverability());
}

TEST(Serving, CrashedNetworkOnlyServesLocalRequests) {
  const auto sc = make_scenario(100, 10.0, 23, 16, 2);
  fault::Plan plan;
  plan.seed = 5;
  for (NodeId u = 0; u < 100; ++u) {
    plan.crashes.push_back({u, 0, 1'000'000'000});
  }
  ServingOptions options;
  options.faults = &plan;
  options.max_attempts_per_hop = 2;
  const ServingEngine engine(sc.inst.g, sc.wcds, sc.registry, options);
  const auto requests = uniform_requests(sc.registry, 500, 31);
  const auto outcomes = engine.serve_batch(requests);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (outcomes[i].resolution == Resolution::kLocal) {
      EXPECT_EQ(outcomes[i].delivered, 1u);
    } else {
      EXPECT_EQ(outcomes[i].delivered, 0u);
      EXPECT_EQ(outcomes[i].resolution, Resolution::kLost);
    }
  }
}

// --- Nightly soak (WCDS_SOAK=1) ---------------------------------------------

// Traffic-under-faults sweep for the scheduled CI job: every (drop, seed)
// combination serves a batch through loss plus two crashed relays and must
// keep >= 99% deliverability with zero misdeliveries.  Skipped in the
// regular suite; failing combinations are appended to a reproducer file
// (WCDS_SOAK_OUT) that the nightly workflow uploads as an artifact.
TEST(ServingSoak, TrafficUnderFaultsSweep) {
  if (std::getenv("WCDS_SOAK") == nullptr) {
    GTEST_SKIP() << "set WCDS_SOAK=1 to run the extended serving sweep";
  }
  const char* out_env = std::getenv("WCDS_SOAK_OUT");
  const std::string out_path =
      out_env != nullptr ? out_env : "fault_soak_failures.txt";
  std::vector<std::string> failures;

  for (const double drop : {0.1, 0.2, 0.3}) {
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
      const auto tag = "serving drop=" + std::to_string(drop) +
                       " seed=" + std::to_string(seed);
      try {
        const auto sc = make_scenario(150, 11.0, seed, 24, 2);
        fault::Plan plan = fault::Plan::lossy(drop, seed * 131 + 7);
        // Two early radio outages; the retry backoff must outlast them.
        plan.crashes.push_back(
            {static_cast<NodeId>(seed % 150), 0, 40});
        plan.crashes.push_back(
            {static_cast<NodeId>((seed * 37 + 11) % 150), 10, 50});
        ServingOptions options;
        options.faults = &plan;
        const ServingEngine engine(sc.inst.g, sc.wcds, sc.registry, options);
        const auto requests = uniform_requests(sc.registry, 1500, seed);
        BatchStats stats;
        const auto outcomes = engine.serve_batch(requests, &stats);
        if (stats.deliverability() < 0.99) {
          failures.push_back(tag + " (deliverability " +
                             std::to_string(stats.deliverability()) + ")");
        }
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
          if (outcomes[i].delivered != 0u &&
              !sc.registry.provides(outcomes[i].provider,
                                    requests[i].service)) {
            failures.push_back(tag + " (misdelivery at request " +
                               std::to_string(i) + ")");
            break;
          }
        }
      } catch (const std::exception& e) {
        failures.push_back(tag + " (" + std::string(e.what()) + ")");
      }
    }
  }

  if (!failures.empty()) {
    std::ofstream out(out_path, std::ios::app);
    for (const auto& line : failures) out << line << "\n";
  }
  EXPECT_TRUE(failures.empty())
      << failures.size() << " failing combinations written to " << out_path;
}

// ---------------------------------------------------------------------------
// Metrics

TEST(Serving, BatchRecordsServiceMetrics) {
  const auto sc = make_scenario(150, 11.0, 29, 24, 2);
  ServingOptions options;
  options.stretch_sample_stride = 10;
  const ServingEngine engine(sc.inst.g, sc.wcds, sc.registry, options);
  const auto requests = uniform_requests(sc.registry, 1000, 37);
  obs::Recorder rec;
  BatchStats stats;
  (void)engine.serve_batch(requests, &stats, &rec);
  const auto snap = rec.snapshot();
  EXPECT_EQ(snap.counters.at("service/requests"), 1000);
  EXPECT_EQ(snap.counters.at("service/delivered"),
            static_cast<std::int64_t>(stats.delivered));
  EXPECT_EQ(snap.counters.at("service/bloom_fp"),
            static_cast<std::int64_t>(stats.bloom_fp));
  EXPECT_EQ(snap.histograms.at("service/latency").count, 1000u);
  EXPECT_EQ(snap.histograms.at("service/stretch").count,
            stats.stretch_samples);
  EXPECT_GE(stats.mean_stretch, 1.0);
}

}  // namespace
}  // namespace wcds::service
