// Pinned digests of the serving path and a sort-based candidate-order oracle.
//
// OutcomesMatchPinnedDigests hashes every Outcome field of a request stream
// (plus the BatchStats serve_batch aggregates from them, stretch included)
// for n in {512, 2048, 8192} x 3 seeds x {perfect radio, 20% loss}.
// RouterTablesMatchPinnedDigests hashes next_clusterhead and
// overlay_distance over every ordered head pair.  The pinned values were
// produced by the engine that sorted each request's candidate domains and
// by the router that walked BFS parent chains, so any change in probe
// order, retry draws or table entries shows up as a mismatch.
//
// The order oracle recomputes inter-domain resolution on a perfect radio the
// straightforward way -- collect every Bloom-positive domain, sort by
// (overlay distance, head index), walk them in turn -- and requires the
// engine's provider, hop count and false-positive count to match it
// exactly.  A tiny Bloom filter makes most requests probe several domains;
// a second case keeps the default filter, where most first candidates come
// from the source head's overlay row or second ring.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "digest.h"
#include "fault/plan.h"
#include "obs/recorder.h"
#include "service/engine.h"
#include "service/registry.h"
#include "test_util.h"
#include "wcds/algorithm2.h"

namespace wcds::service {
namespace {

using testing::Cells;
using testing::Digest;
using testing::expect_pinned;

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

constexpr std::uint32_t kSizes[] = {512, 2048, 8192};
constexpr std::uint64_t kSeeds[] = {1, 2, 3};
constexpr std::size_t kRequests = 1u << 13;

std::string cell_name(std::uint32_t n, std::uint64_t seed,
                      const char* radio = nullptr) {
  std::ostringstream name;
  name << 'n' << n << "/seed" << seed;
  if (radio != nullptr) name << '/' << radio;
  return name.str();
}

std::uint64_t outcome_digest(const Scenario& sc, const fault::Plan* plan,
                             std::uint64_t seed) {
  ServingOptions options;
  options.faults = plan;
  options.stretch_sample_stride = 61;
  const ServingEngine engine(sc.inst.g, sc.wcds, sc.registry, options);
  const auto requests = uniform_requests(sc.registry, kRequests, seed + 100);
  obs::Recorder rec;
  BatchStats stats;
  const auto outcomes = engine.serve_batch(requests, &stats, &rec);

  Digest d;
  d.add(outcomes.size());
  for (const Outcome& out : outcomes) {
    d.add(out.provider);
    d.add(out.hops);
    d.add(out.retries);
    d.add(out.latency);
    d.add(out.bloom_fp);
    d.add(out.delivered);
    d.add(static_cast<std::uint64_t>(out.resolution));
  }
  d.add(stats.requests);
  d.add(stats.delivered);
  d.add(stats.hops);
  d.add(stats.retries);
  d.add(stats.bloom_fp);
  d.add(stats.latency_sum);
  d.add(stats.latency_p50);
  d.add(stats.latency_p95);
  d.add(std::bit_cast<std::uint64_t>(stats.mean_stretch));
  d.add(stats.stretch_samples);

  // The recorded stretch histogram sees exactly the BatchStats samples.
  const auto snap = rec.snapshot();
  const auto& stretch = snap.histograms.at("service/stretch");
  EXPECT_EQ(stretch.count, stats.stretch_samples);
  EXPECT_DOUBLE_EQ(stretch.mean, stats.mean_stretch);
  EXPECT_EQ(snap.counters.at("service/bloom_fp"), stats.bloom_fp);
  return d.value();
}

std::uint64_t router_digest(const routing::ClusterheadRouter& router) {
  const auto heads = router.heads();
  Digest d;
  d.add(heads.size());
  for (const NodeId a : heads) {
    for (const NodeId b : heads) {
      d.add(router.next_clusterhead(a, b));
      d.add(router.overlay_distance(a, b));
    }
  }
  return d.value();
}

const Cells kOutcomePinned = {
    {"n2048/seed1/lossy20", 0xe01a339d1ea9e8cfULL},
    {"n2048/seed1/perfect", 0xf51d2ebd046a77deULL},
    {"n2048/seed2/lossy20", 0x427cd69c80392cf3ULL},
    {"n2048/seed2/perfect", 0x39c7df114f274f0ULL},
    {"n2048/seed3/lossy20", 0xe37b2c1e77425ccdULL},
    {"n2048/seed3/perfect", 0xa2f19962c4e772bULL},
    {"n512/seed1/lossy20", 0x9b222ae4f20a592ULL},
    {"n512/seed1/perfect", 0x2e945c18e84e8a3bULL},
    {"n512/seed2/lossy20", 0xb9da2f47dafad872ULL},
    {"n512/seed2/perfect", 0x5421173b6142ad3bULL},
    {"n512/seed3/lossy20", 0x3c5462c82faec034ULL},
    {"n512/seed3/perfect", 0x6f5ac106b828c843ULL},
    {"n8192/seed1/lossy20", 0x8b41474040e574dfULL},
    {"n8192/seed1/perfect", 0xacaf74d98699e974ULL},
    {"n8192/seed2/lossy20", 0x910c2d5ec3f5eef9ULL},
    {"n8192/seed2/perfect", 0x946662e394d8031bULL},
    {"n8192/seed3/lossy20", 0xb2b7b9480c8cdcd5ULL},
    {"n8192/seed3/perfect", 0xaa5184c0fccaa3bcULL},
};

const Cells kRouterPinned = {
    {"n2048/seed1", 0x212abe978051f6aaULL},
    {"n2048/seed2", 0xd4899be05e44011aULL},
    {"n2048/seed3", 0xf71b411612c1ea7fULL},
    {"n512/seed1", 0xc8030f3e0535d5f6ULL},
    {"n512/seed2", 0x1a87e59c0a258ac4ULL},
    {"n512/seed3", 0x6d357c56d5db59a8ULL},
    {"n8192/seed1", 0x5664bb7c40079ba5ULL},
    {"n8192/seed2", 0x1e56c989bdd77a6bULL},
    {"n8192/seed3", 0x6076a1894e17c72aULL},
};

TEST(ServingDigest, OutcomesMatchPinnedDigests) {
  Cells cells;
  for (const std::uint32_t n : kSizes) {
    for (const std::uint64_t seed : kSeeds) {
      const Scenario sc = make_scenario(n, 16.0, seed, 256, 2);
      const fault::Plan lossy = fault::Plan::lossy(0.2, seed);
      cells[cell_name(n, seed, "perfect")] = outcome_digest(sc, nullptr, seed);
      cells[cell_name(n, seed, "lossy20")] = outcome_digest(sc, &lossy, seed);
    }
  }
  expect_pinned(cells, kOutcomePinned);
}

TEST(ServingDigest, RouterTablesMatchPinnedDigests) {
  Cells cells;
  for (const std::uint32_t n : kSizes) {
    for (const std::uint64_t seed : kSeeds) {
      const Scenario sc = make_scenario(n, 16.0, seed, 256, 2);
      const ServingEngine engine(sc.inst.g, sc.wcds, sc.registry);
      cells[cell_name(n, seed)] = router_digest(engine.router());
    }
  }
  expect_pinned(cells, kRouterPinned);
}

// ---------------------------------------------------------------------------
// Candidate-order oracle

struct Expected {
  NodeId provider = kInvalidNode;
  std::uint32_t hops = 0;
  std::uint16_t bloom_fp = 0;
  Resolution resolution = Resolution::kNoProvider;
  std::uint32_t first_distance = 0;  // overlay distance of the 1st candidate
};

// Physical hops of the overlay path between two heads (2 or 3 per leg).
std::uint32_t overlay_hops(const routing::ClusterheadRouter& router,
                           NodeId from, NodeId to) {
  std::uint32_t hops = 0;
  for (NodeId cur = from; cur != to;) {
    const NodeId step = router.next_clusterhead(cur, to);
    const auto leg = router.leg(router.head_index(cur),
                                router.head_index(step));
    hops += leg.via2 == kInvalidNode ? 2 : 3;
    cur = step;
  }
  return hops;
}

// Inter-domain resolution on a perfect radio, candidates fully sorted by
// (overlay distance, head index) up front.
Expected sorted_order_oracle(const ServingEngine& engine,
                             const ServiceRegistry& registry,
                             const Request& request) {
  const auto& router = engine.router();
  const auto heads = router.heads();
  const NodeId head = router.clusterhead(request.src);
  const std::uint32_t head_idx = router.head_index(head);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> candidates;
  for (const std::uint32_t idx : engine.advertisers(request.service)) {
    const std::uint32_t d = router.overlay_distance(head, heads[idx]);
    if (idx != head_idx && d != 0xFFFFFFFFu) candidates.emplace_back(d, idx);
  }
  std::sort(candidates.begin(), candidates.end());

  Expected e;
  e.hops = request.src != head ? 1 : 0;
  if (!candidates.empty()) e.first_distance = candidates.front().first;
  NodeId at = head;
  for (const auto& [dist, idx] : candidates) {
    e.hops += overlay_hops(router, at, heads[idx]);
    at = heads[idx];
    NodeId provider = kInvalidNode;
    for (const NodeId p : registry.providers_of(request.service)) {
      if (router.clusterhead(p) == at) {
        provider = p;
        break;
      }
    }
    if (provider == kInvalidNode) {
      ++e.bloom_fp;
      continue;
    }
    e.hops += provider != at ? 1 : 0;
    e.provider = provider;
    e.resolution = Resolution::kInterDomain;
    return e;
  }
  return e;
}

TEST(ServingOrderOracle, MultiProbeRequestsVisitDomainsNearestFirst) {
  std::size_t multi_probe = 0;
  std::uint16_t max_fp = 0;
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    const auto sc = make_scenario(600, 10.0, seed, 96, 1);
    for (const std::uint32_t bits : {1u, 2u}) {
      ServingOptions options;
      options.bloom.bits_per_entry = bits;  // FP rate 0.63 / 0.39 per domain
      const ServingEngine engine(sc.inst.g, sc.wcds, sc.registry, options);
      const auto requests = uniform_requests(sc.registry, 3000, seed + 7);
      for (std::size_t i = 0; i < requests.size(); ++i) {
        const Outcome out = engine.serve(requests[i], i);
        if (out.resolution != Resolution::kInterDomain &&
            out.resolution != Resolution::kNoProvider) {
          continue;
        }
        const Expected e = sorted_order_oracle(engine, sc.registry,
                                               requests[i]);
        ASSERT_EQ(out.resolution, e.resolution) << "request " << i;
        ASSERT_EQ(out.provider, e.provider) << "request " << i;
        ASSERT_EQ(out.bloom_fp, e.bloom_fp) << "request " << i;
        ASSERT_EQ(out.hops, e.hops) << "request " << i;
        ASSERT_EQ(out.latency, e.hops) << "request " << i;
        if (out.bloom_fp >= 2) ++multi_probe;
        max_fp = std::max(max_fp, out.bloom_fp);
      }
    }
  }
  EXPECT_GT(multi_probe, 1000u);
  EXPECT_GE(max_fp, 16u);  // long probe chains, past any lazy-scan cutoff
}

// Default filters (10 bits per entry) on the serving deployment's shape: a
// positive domain usually lies one or two overlay hops from the source
// head, so the first candidate comes from the head's overlay row or second
// ring, and the candidate scan only hands out the rest.  Every path must
// agree with the sorted oracle.
TEST(ServingOrderOracle, DefaultFiltersMatchFromRowRingAndScan) {
  std::size_t by_distance[4] = {};  // first candidate at 1, 2, 3+ hops
  std::size_t probed_on = 0;        // a false positive first, then more
  for (const std::uint64_t seed : {1u, 2u}) {
    const auto sc = make_scenario(2048, 16.0, seed, 256, 2);
    const ServingEngine engine(sc.inst.g, sc.wcds, sc.registry);
    const auto requests = uniform_requests(sc.registry, 8000, seed + 7);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const Outcome out = engine.serve(requests[i], i);
      if (out.resolution != Resolution::kInterDomain &&
          out.resolution != Resolution::kNoProvider) {
        continue;
      }
      const Expected e = sorted_order_oracle(engine, sc.registry,
                                             requests[i]);
      ASSERT_EQ(out.resolution, e.resolution) << "request " << i;
      ASSERT_EQ(out.provider, e.provider) << "request " << i;
      ASSERT_EQ(out.bloom_fp, e.bloom_fp) << "request " << i;
      ASSERT_EQ(out.hops, e.hops) << "request " << i;
      ASSERT_EQ(out.latency, e.hops) << "request " << i;
      ++by_distance[std::min(e.first_distance, 3u)];
      if (out.bloom_fp > 0 && e.first_distance <= 2) ++probed_on;
    }
  }
  EXPECT_GT(by_distance[1], 3000u);
  EXPECT_GT(by_distance[2], 2500u);
  EXPECT_GT(by_distance[3], 1000u);
  EXPECT_GT(probed_on, 300u);
}

}  // namespace
}  // namespace wcds::service
