// Service-centric request serving over the WCDS backbone.
//
// The DS-SCN shape on top of the paper's §4.2 routing machinery: every node
// advertises named services to its clusterhead (ServiceRegistry); every
// clusterhead aggregates its domain's advertisements into a Bloom filter
// plus an exact per-domain provider table; a request for a service name is
// resolved
//
//   1. locally        — the source itself provides the service (no radio);
//   2. at a neighbor  — an adjacent provider, one direct hop (the paper's
//                       "adjacent pairs route in a single hop");
//   3. intra-domain   — the source's clusterhead finds an exact provider in
//                       its own domain table;
//   4. inter-domain   — the source's clusterhead probes the other domains'
//                       Bloom summaries, orders the positive candidates by
//                       overlay distance (ties by head id), and forwards the
//                       request clusterhead -> clusterhead over the §4.2
//                       next-clusterhead tables, every physical hop a black
//                       spanner edge.  A candidate whose exact table has no
//                       provider was a Bloom false positive: the request
//                       continues to the next candidate (extra probe hops,
//                       never misdelivery).
//
// Forwarding is retry-aware: each physical hop is retransmitted (capped
// exponential backoff, at most max_attempts_per_hop attempts) against the
// fault plan's loss probabilities and crash windows, so delivery survives
// lossy radios instead of assuming a perfect one.  serve() is a pure
// function of (engine state, request, request index): all per-request
// entropy comes from a Xoshiro stream seeded by (plan seed, salt, index),
// which is what makes serve_batch byte-identical at any thread count
// (docs/SERVING.md has the full determinism argument).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "fault/plan.h"
#include "geom/rng.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "obs/recorder.h"
#include "routing/clusterhead_routing.h"
#include "service/bloom.h"
#include "service/registry.h"
#include "wcds/algorithm2.h"

namespace wcds::service {

struct ServingOptions {
  BloomParams bloom;

  // Fault plan interpreted on the forwarding path (drop probabilities,
  // per-link overrides, crash windows); null = perfect radio.  Borrowed.
  const fault::Plan* faults = nullptr;

  // Per physical hop: total transmission attempts before the request is
  // dropped (1 = no retries).
  std::uint32_t max_attempts_per_hop = 8;

  // Latency units waited before the first retransmission; doubles per
  // further attempt, capped at 16x.
  std::uint32_t retry_timeout = 2;

  // serve_batch records `service/stretch` for every stride-th delivered
  // request (hop distance needs a BFS, too costly for every request).
  // 0 disables stretch sampling.
  std::uint32_t stretch_sample_stride = 0;

  // Extra salt folded into every per-request RNG stream.
  std::uint64_t rng_salt = 0x5e4f1ceULL;
};

struct Request {
  NodeId src = kInvalidNode;
  ServiceId service = kInvalidService;
};

enum class Resolution : std::uint8_t {
  kLocal,        // source provides the service itself
  kNeighbor,     // adjacent provider, direct hop
  kIntraDomain,  // provider in the source clusterhead's domain
  kInterDomain,  // provider found via Bloom-directed domain search
  kNoProvider,   // no advertising domain held a provider
  kLost,         // a hop exhausted its attempts (loss/crash)
};

// Trivially copyable so the determinism tests can compare batches bytewise.
struct Outcome {
  NodeId provider = kInvalidNode;   // delivered-to provider
  std::uint32_t hops = 0;           // successful transmissions
  std::uint32_t retries = 0;        // failed attempts that were retransmitted
  std::uint32_t latency = 0;        // virtual time units, incl. backoff waits
  std::uint16_t bloom_fp = 0;       // candidate domains without a provider
  std::uint8_t delivered = 0;
  Resolution resolution = Resolution::kNoProvider;
};

struct BatchStats {
  std::uint64_t requests = 0;
  std::uint64_t delivered = 0;
  std::uint64_t hops = 0;
  std::uint64_t retries = 0;
  std::uint64_t bloom_fp = 0;
  std::uint64_t latency_sum = 0;
  std::uint32_t latency_p50 = 0;    // nearest-rank over all requests
  std::uint32_t latency_p95 = 0;
  double mean_stretch = 0.0;        // delivered hops / graph hop distance
  std::size_t stretch_samples = 0;

  [[nodiscard]] double deliverability() const {
    return requests == 0
               ? 0.0
               : static_cast<double>(delivered) / static_cast<double>(requests);
  }
};

class ServingEngine {
 public:
  // Borrows everything: g, the view's backing storage, the registry and
  // options.faults must outlive the engine.
  ServingEngine(const graph::Graph& g, core::Algorithm2View wcds,
                const ServiceRegistry& registry,
                const ServingOptions& options = {});

  // Serve one request.  Pure: identical (request, request_index) always
  // yield the identical Outcome, whatever thread calls it.
  [[nodiscard]] Outcome serve(const Request& request,
                              std::uint64_t request_index) const;

  // Serve a batch through parallel::parallel_for (one outcome slot per
  // request, merged in index order -> byte-identical at any thread count),
  // then aggregate stats and record service/* metrics serially.  Metrics go
  // to `recorder`, else the ambient global recorder, else nowhere.
  BatchStats serve_batch(std::span<const Request> requests,
                         std::span<Outcome> outcomes,
                         obs::Recorder* recorder = nullptr) const;
  [[nodiscard]] std::vector<Outcome> serve_batch(
      std::span<const Request> requests, BatchStats* stats = nullptr,
      obs::Recorder* recorder = nullptr) const;

  [[nodiscard]] const routing::ClusterheadRouter& router() const {
    return router_;
  }
  [[nodiscard]] const ServiceRegistry& registry() const { return registry_; }
  [[nodiscard]] const ServingOptions& options() const { return opts_; }

  // Mean predicted Bloom FP rate across the clusterhead filters.
  [[nodiscard]] double predicted_fp_rate() const;

  // Domains whose Bloom answers "maybe" for `service` (dense head indices,
  // ascending) — the inter-domain candidate universe.
  [[nodiscard]] std::span<const std::uint32_t> advertisers(
      ServiceId service) const {
    return advertisers_[service];
  }

 private:
  // One transmission with retries; advances the virtual clock, updates
  // outcome counters.  False when every attempt failed.
  bool transmit(NodeId from, NodeId to, geom::Xoshiro256ss& rng,
                std::uint32_t& now, Outcome& out) const;
  // Walk the overlay from head `from` to head `to` (dense head indices) hop
  // by hop.  False when a hop exhausted its attempts.
  bool walk_overlay(std::uint32_t from, std::uint32_t to,
                    geom::Xoshiro256ss& rng, std::uint32_t& now,
                    Outcome& out) const;
  [[nodiscard]] double drop_probability(NodeId from, NodeId to) const;
  [[nodiscard]] bool crashed(NodeId node, std::uint32_t at_time) const;
  // First provider of `service` in head's domain (smallest id), or
  // kInvalidNode.
  [[nodiscard]] NodeId domain_provider(std::uint32_t head_index,
                                       ServiceId service) const;

  const graph::Graph& g_;
  const ServiceRegistry& registry_;
  ServingOptions opts_;
  routing::ClusterheadRouter router_;

  // Per-head Bloom summaries (dense head index order).
  std::vector<BloomFilter> blooms_;
  // Exact per-domain provider tables, CSR over (head, service): providers
  // of service s in head h's domain are prov_[prov_off_[h * S + s] ..
  // prov_off_[h * S + s + 1]), sorted by node id.
  std::vector<std::uint32_t> prov_off_;
  std::vector<NodeId> prov_;
  // Bloom-positive domains per service, ascending dense head index.
  std::vector<std::vector<std::uint32_t>> advertisers_;
  // Crash windows per node ([down_from, up_at) pairs); empty when no plan.
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> crash_;
  // Per-directed-CSR-slot drop probability; empty unless the plan carries
  // link overrides.
  std::vector<double> link_drop_;
  bool any_faults_ = false;
};

// Deterministic synthetic request stream: request i has a uniform source
// and a uniform *provided* service (services nobody advertises are
// resampled, so a perfect radio can deliver every request).  Pure function
// of (registry, seed, count).
[[nodiscard]] std::vector<Request> uniform_requests(
    const ServiceRegistry& registry, std::size_t count, std::uint64_t seed);

}  // namespace wcds::service
