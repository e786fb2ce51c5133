#include "service/engine.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <utility>

#include "check/check.h"
#include "graph/bfs.h"
#include "parallel/thread_pool.h"

namespace wcds::service {

namespace {

constexpr std::uint32_t kNoHeadIndex = 0xFFFFFFFFu;
constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;
constexpr std::size_t kBatchGrain = 1024;
// Candidates NearestFirst picks by linear min-scan before sorting the rest.
constexpr std::uint32_t kLazyProbes = 8;

// Per-request RNG stream: a pure function of (plan seed, salt, index), so a
// request's fault/retry draws never depend on batch order or thread count.
geom::Xoshiro256ss request_rng(std::uint64_t plan_seed, std::uint64_t salt,
                               std::uint64_t index) {
  geom::SplitMix64 sm(plan_seed ^ salt);
  return geom::Xoshiro256ss(sm.next() ^ (kGolden * (index + 1)));
}

// An inter-domain candidate's order key: (overlay distance from the source
// head, head index) packed into one integer.
std::uint64_t candidate_key(std::uint16_t distance, std::uint32_t idx) {
  return (std::uint64_t{distance} << 32) | idx;
}

// The inter-domain candidates of one request in ascending key order,
// produced one at a time, starting past a given key; the next candidate is
// the smallest key above the last one handed out.  The first kLazyProbes
// picks are min-scans over the candidate list and the clusterhead's
// distance row; a request still probing after that sorts its remaining keys
// once in a per-thread buffer, which keeps a long false-positive chain
// O(m log m) instead of O(m^2).
class NearestFirst {
 public:
  NearestFirst(std::span<const std::uint32_t> candidates,
               std::span<const std::uint16_t> distance_row,
               std::uint64_t after)
      : candidates_(candidates), row_(distance_row), last_(after) {}

  // Dense head index of the next candidate, kNoHeadIndex when none is left.
  std::uint32_t pop() {
    if (picks_ < kLazyProbes) {
      last_ = smallest_above(last_);
    } else {
      if (picks_ == kLazyProbes) sort_rest();
      const std::size_t i = picks_ - kLazyProbes;
      last_ = i < rest().size() ? rest()[i] : kNone;
    }
    ++picks_;
    return last_ == kNone ? kNoHeadIndex : static_cast<std::uint32_t>(last_);
  }

 private:
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};
  // Keys at or above this belong to heads in another overlay component.
  static constexpr std::uint64_t kUnreachable =
      std::uint64_t{routing::ClusterheadRouter::kUnreachableDistance} << 32;

  static std::vector<std::uint64_t>& rest() {
    thread_local std::vector<std::uint64_t> buffer;
    return buffer;
  }

  std::uint64_t smallest_above(std::uint64_t after) const {
    std::uint64_t best = kUnreachable;
    for (const std::uint32_t idx : candidates_) {
      const std::uint64_t k = candidate_key(row_[idx], idx);
      if (k > after && k < best) best = k;
    }
    return best == kUnreachable ? kNone : best;
  }

  void sort_rest() const {
    std::vector<std::uint64_t>& buffer = rest();
    buffer.clear();
    for (const std::uint32_t idx : candidates_) {
      const std::uint64_t k = candidate_key(row_[idx], idx);
      if (k > last_ && k < kUnreachable) buffer.push_back(k);
    }
    std::sort(buffer.begin(), buffer.end());
  }

  std::span<const std::uint32_t> candidates_;
  std::span<const std::uint16_t> row_;
  std::uint64_t last_;
  std::uint32_t picks_ = 0;
};

}  // namespace

ServingEngine::ServingEngine(const graph::Graph& g, core::Algorithm2View wcds,
                             const ServiceRegistry& registry,
                             const ServingOptions& options)
    : g_(g), registry_(registry), opts_(options), router_(g, wcds) {
  WCDS_REQUIRE(registry.node_count() == g.node_count(),
               "ServingEngine: registry sized for a different graph");
  const std::size_t n = g.node_count();
  const std::size_t heads = router_.heads().size();
  const std::size_t services = registry.service_count();

  // Domain membership: the dense head index of every node's clusterhead.
  std::vector<std::uint32_t> domain(n);
  for (NodeId u = 0; u < n; ++u) {
    domain[u] = router_.head_index(router_.clusterhead(u));
  }

  // Each node's services in one block: the local and neighbor steps read
  // these rows, not the registry's per-node vectors.
  node_services_.reset(n, registry.advertisement_count());
  for (NodeId u = 0; u < n; ++u) {
    for (const ServiceId s : registry.services_at(u)) {
      node_services_.push_back(s);
    }
    node_services_.close_row();
  }

  // Neighbor-service summaries: each node ORs its services into the
  // summaries of its neighbors.
  neighbor_services_.assign(kSummaryWords * n, 0);
  for (NodeId v = 0; v < n; ++v) {
    for (const ServiceId s : node_services_[v]) {
      const std::size_t word = s / 64 % kSummaryWords;
      const std::uint64_t bit = std::uint64_t{1} << (s % 64);
      for (const NodeId u : g.neighbors(v)) {
        neighbor_services_[kSummaryWords * u + word] |= bit;
      }
    }
  }

  // Exact per-domain provider rows: every advertisement laid out in its
  // domain's row, each row sorted by (service, provider), and the first
  // entry per service kept -- the domain's smallest provider.
  std::vector<std::uint32_t> fill(heads, 0);
  for (NodeId u = 0; u < n; ++u) {
    fill[domain[u]] += static_cast<std::uint32_t>(node_services_[u].size());
  }
  auto advertised = graph::FlatRows<DomainProvider>::sized(fill);
  for (NodeId u = 0; u < n; ++u) {
    const std::span<DomainProvider> row = advertised.mutable_row(domain[u]);
    for (const ServiceId s : node_services_[u]) {
      row[--fill[domain[u]]] = {s, u};
    }
  }
  providers_.reset(heads, advertised.entry_count());
  for (std::size_t h = 0; h < heads; ++h) {
    const std::span<DomainProvider> row = advertised.mutable_row(h);
    std::sort(row.begin(), row.end(),
              [](const DomainProvider& x, const DomainProvider& y) {
                return x.service != y.service ? x.service < y.service
                                              : x.provider < y.provider;
              });
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i == 0 || row[i].service != row[i - 1].service) {
        providers_.push_back(row[i]);
      }
    }
    providers_.close_row();
  }

  // Clusterhead Bloom summaries: one insertion per distinct (domain,
  // service) advertisement, sized to the domain's distinct service count.
  blooms_.reserve(heads);
  for (std::size_t h = 0; h < heads; ++h) {
    BloomFilter bloom(opts_.bloom, providers_[h].size());
    for (const DomainProvider& e : providers_[h]) {
      bloom.insert(registry.key(e.service));
    }
    blooms_.push_back(std::move(bloom));
  }

  // Size classes: the filters share one BloomParams, so two of them probe
  // the same bits for a key exactly when their bit counts match.  Class c
  // is the c-th distinct bit count, ascending; size_class[h] is head h's.
  std::vector<std::uint32_t> by_size(heads);
  std::iota(by_size.begin(), by_size.end(), 0u);
  std::sort(by_size.begin(), by_size.end(),
            [&](std::uint32_t x, std::uint32_t y) {
              return blooms_[x].bit_count() < blooms_[y].bit_count();
            });
  std::vector<std::uint32_t> size_class(heads);
  std::size_t classes = 0;  // by_size[c] becomes the first head of class c
  for (std::size_t i = 0; i < heads; ++i) {
    const std::uint32_t h = by_size[i];
    const std::size_t bits = blooms_[h].bit_count();
    if (classes == 0 || bits != blooms_[by_size[classes - 1]].bit_count()) {
      by_size[classes++] = h;
    }
    size_class[h] = static_cast<std::uint32_t>(classes - 1);
  }

  // Bloom-positive domains per service: the candidate universe a requesting
  // clusterhead works through (includes false positives by design), as a
  // list and as a bitset.  A service's key is hashed once per size class;
  // each head then tests the positions of its class.  The hint counts the
  // true positives only; false positives grow past it, so the spare
  // capacity is released once the table is filled.
  const std::size_t k = heads == 0 ? 0 : blooms_[0].hash_count();
  std::vector<std::uint64_t> probes(classes * k);
  advertisers_.reset(services, providers_.entry_count());
  advertiser_words_ = (heads + 63) / 64;
  advertiser_bits_.assign(services * advertiser_words_, 0);
  for (std::size_t s = 0; s < services; ++s) {
    const std::uint64_t key = registry.key(static_cast<ServiceId>(s));
    for (std::size_t c = 0; c < classes; ++c) {
      blooms_[by_size[c]].probe_bits(
          key, std::span<std::uint64_t>(probes).subspan(c * k, k));
    }
    std::uint64_t* const bits = &advertiser_bits_[s * advertiser_words_];
    for (std::uint32_t h = 0; h < heads; ++h) {
      if (blooms_[h].has_bits(std::span<const std::uint64_t>(probes).subspan(
              size_class[h] * k, k))) {
        advertisers_.push_back(h);
        bits[h / 64] |= std::uint64_t{1} << (h % 64);
      }
    }
    advertisers_.close_row();
  }
  advertisers_.shrink_to_fit();

  // Fault plan digestion: crash windows per node, per-link drop table.
  const fault::Plan* plan = opts_.faults;
  if (plan != nullptr) {
    plan->validate(n);
    any_faults_ = plan->drop > 0.0 || !plan->crashes.empty() ||
                  !plan->link_overrides.empty();
    if (!plan->crashes.empty()) {
      crash_.resize(n);
      for (const fault::CrashWindow& w : plan->crashes) {
        crash_[w.node].emplace_back(w.down_from, w.up_at);
      }
    }
    if (!plan->link_overrides.empty()) {
      link_drop_.assign(g.adjacency_slots(), plan->drop);
      for (const fault::LinkOverride& ov : plan->link_overrides) {
        WCDS_REQUIRE_BOUNDS(ov.link_slot < link_drop_.size(),
                            "ServingEngine: link override slot range");
        link_drop_[ov.link_slot] = ov.drop;
      }
    }
  }
}

double ServingEngine::drop_probability(NodeId from, NodeId to) const {
  if (!link_drop_.empty()) return link_drop_[g_.edge_slot(from, to)];
  return opts_.faults->drop;
}

bool ServingEngine::crashed(NodeId node, std::uint32_t at_time) const {
  if (crash_.empty()) return false;
  for (const auto& [down, up] : crash_[node]) {
    if (at_time >= down && at_time < up) return true;
  }
  return false;
}

bool ServingEngine::transmit(NodeId from, NodeId to, geom::Xoshiro256ss& rng,
                             std::uint32_t& now, Outcome& out) const {
  const std::uint32_t max_attempts = std::max(1u, opts_.max_attempts_per_hop);
  std::uint32_t backoff = kRetryTimeout;
  constexpr std::uint32_t kBackoffCap = kRetryTimeout * 16;
  for (std::uint32_t attempt = 1;; ++attempt) {
    ++now;  // one transmission slot
    bool ok = true;
    if (any_faults_) {
      if (crashed(from, now) || crashed(to, now)) {
        ok = false;
      } else {
        const double p = drop_probability(from, to);
        // p is a property of the (from, to) link for the whole run, so the
        // same hop draws identically on every attempt; skipping the draw on
        // loss-free links is deliberate — it keeps fault-free serving traces
        // byte-identical to the pre-fault-injection ones.
        if (p > 0.0 && rng.next_double() < p) ok = false;
      }
    }
    if (ok) {
      ++out.hops;
      return true;
    }
    if (attempt == max_attempts) return false;
    ++out.retries;
    now += backoff;  // wait out the retransmission timer
    backoff = std::min(backoff * 2, kBackoffCap);
  }
}

bool ServingEngine::cross(NodeId from, routing::ClusterheadRouter::Leg leg,
                          NodeId to, geom::Xoshiro256ss& rng,
                          std::uint32_t& now, Outcome& out) const {
  if (!transmit(from, leg.via1, rng, now, out)) return false;
  NodeId prev = leg.via1;
  if (leg.via2 != kInvalidNode) {
    if (!transmit(prev, leg.via2, rng, now, out)) return false;
    prev = leg.via2;
  }
  return transmit(prev, to, rng, now, out);
}

bool ServingEngine::walk_overlay(std::uint32_t from, std::uint32_t to,
                                 geom::Xoshiro256ss& rng, std::uint32_t& now,
                                 Outcome& out) const {
  const std::span<const NodeId> heads = router_.heads();
  while (from != to) {
    const routing::ClusterheadRouter::Hop hop = router_.next_hop(from, to);
    if (hop.head == kNoHeadIndex) return false;  // overlay disconnected
    if (!cross(heads[from], hop.leg, heads[hop.head], rng, now, out)) {
      return false;
    }
    from = hop.head;
  }
  return true;
}

ServingEngine::FirstCandidate ServingEngine::first_candidate(
    std::uint32_t head_index, ServiceId service) const {
  // Distance 1: the smallest-index positive head of the overlay row.  A
  // row lists each head once, so its entry is the edge next_hop would take.
  FirstCandidate first;
  for (const routing::ClusterheadRouter::OverlayEdge& e :
       router_.overlay_row(head_index)) {
    if (e.to < first.head && bloom_positive(e.to, service)) {
      first = {e.to, candidate_key(1, e.to), {e.via1, e.via2}};
    }
  }
  if (first.head != kNoHeadIndex) return first;
  // Distance 2: the second ring is ascending, so its first positive head.
  for (const std::uint32_t idx : router_.second_ring(head_index)) {
    if (bloom_positive(idx, service)) return {idx, candidate_key(2, idx), {}};
  }
  // No positive head within two hops: the candidates start at distance 3.
  return {kNoHeadIndex, candidate_key(2, kNoHeadIndex), {}};
}

NodeId ServingEngine::domain_provider(std::uint32_t head_index,
                                      ServiceId service) const {
  const std::span<const DomainProvider> row = providers_[head_index];
  const auto it = std::lower_bound(
      row.begin(), row.end(), service,
      [](const DomainProvider& e, ServiceId s) { return e.service < s; });
  return it != row.end() && it->service == service ? it->provider
                                                   : kInvalidNode;
}

bool ServingEngine::offers(NodeId node, ServiceId service) const {
  // A node advertises a handful of services, and the neighbor step asks
  // every neighbor of the source: on rows that short a linear scan beats
  // the unpredictable branches of a binary search.
  const std::span<const ServiceId> row = node_services_[node];
  return std::find(row.begin(), row.end(), service) != row.end();
}

Outcome ServingEngine::serve(const Request& request,
                             std::uint64_t request_index) const {
  WCDS_REQUIRE_BOUNDS(request.src < g_.node_count(),
                      "serve: source " << request.src << " out of range");
  WCDS_REQUIRE_BOUNDS(request.service < registry_.service_count(),
                      "serve: service " << request.service
                                        << " out of range");
  Outcome out;
  const NodeId src = request.src;
  const ServiceId s = request.service;

  // 1. Local: the source provides the service itself — no radio involved.
  if (offers(src, s)) {
    out.provider = src;
    out.delivered = 1;
    out.resolution = Resolution::kLocal;
    return out;
  }

  geom::Xoshiro256ss rng = request_rng(
      opts_.faults != nullptr ? opts_.faults->seed : 0, kRngSalt,
      request_index);
  std::uint32_t now = 0;

  // 2. Neighbor: the smallest adjacent provider, one direct hop (the
  // paper's single-hop rule for adjacent pairs; CSR rows are ascending).
  // The source's neighbor summary rules most requests out without the scan.
  if (neighbor_may_offer(src, s)) {
    for (const NodeId v : g_.neighbors(src)) {
      if (!offers(v, s)) continue;
      if (transmit(src, v, rng, now, out)) {
        out.provider = v;
        out.delivered = 1;
        out.resolution = Resolution::kNeighbor;
      } else {
        out.resolution = Resolution::kLost;
      }
      out.latency = now;
      return out;
    }
  }

  // Hand the request to the source's clusterhead.
  const NodeId head = router_.clusterhead(src);
  if (src != head) {
    if (!transmit(src, head, rng, now, out)) {
      out.resolution = Resolution::kLost;
      out.latency = now;
      return out;
    }
  }
  const std::uint32_t head_idx = router_.head_index(head);

  // 3. Intra-domain: the clusterhead's exact provider row has a provider.
  if (const NodeId p = domain_provider(head_idx, s); p != kInvalidNode) {
    if (p == head || transmit(head, p, rng, now, out)) {
      out.provider = p;
      out.delivered = 1;
      out.resolution = Resolution::kIntraDomain;
    } else {
      out.resolution = Resolution::kLost;
    }
    out.latency = now;
    return out;
  }

  // 4. Inter-domain: probe the Bloom summaries, visit positive domains
  // nearest-first (overlay distance from the source clusterhead, ties by
  // head index).  The candidate order is fixed at the source clusterhead
  // and carried with the request; the walk continues from wherever the
  // previous probe ended.  The first candidate comes from the head's
  // overlay row or second ring when one lies within two hops; NearestFirst
  // hands out the rest, past its key.  The own domain is the only one at
  // distance 0 and has already answered, so the order never returns to it.
  const std::span<const NodeId> heads = router_.heads();
  const FirstCandidate first = first_candidate(head_idx, s);
  NearestFirst order(advertisers_[s], router_.distance_row(head_idx),
                     first.key);
  std::uint32_t at = head_idx;
  for (std::uint32_t idx =
           first.head != kNoHeadIndex ? first.head : order.pop();
       idx != kNoHeadIndex; idx = order.pop()) {
    // A candidate from the overlay row is one hop away, over its own leg.
    const bool reached =
        idx == first.head && first.leg.via1 != kInvalidNode
            ? cross(heads[at], first.leg, heads[idx], rng, now, out)
            : walk_overlay(at, idx, rng, now, out);
    if (!reached) {
      out.resolution = Resolution::kLost;
      out.latency = now;
      return out;
    }
    at = idx;
    const NodeId q = domain_provider(idx, s);
    if (q == kInvalidNode) {
      ++out.bloom_fp;  // Bloom false positive: probe cost only, keep going
      continue;
    }
    if (q == heads[idx] || transmit(heads[idx], q, rng, now, out)) {
      out.provider = q;
      out.delivered = 1;
      out.resolution = Resolution::kInterDomain;
    } else {
      out.resolution = Resolution::kLost;
    }
    out.latency = now;
    return out;
  }

  out.resolution = Resolution::kNoProvider;
  out.latency = now;
  return out;
}

BatchStats ServingEngine::serve_batch(std::span<const Request> requests,
                                      std::span<Outcome> outcomes,
                                      obs::Recorder* recorder) const {
  WCDS_REQUIRE(outcomes.size() == requests.size(),
               "serve_batch: one outcome slot per request");
  // Per-index slots + pure serve() => byte-identical at any thread count.
  parallel::parallel_for(std::size_t{0}, requests.size(), kBatchGrain,
                         [&](std::size_t i) {
                           outcomes[i] = serve(requests[i], i);
                         });

  // Aggregation and metrics recording stay serial, in index order
  // (MetricsRegistry is not thread-safe and order must be deterministic).
  BatchStats st;
  st.requests = requests.size();
  for (const Outcome& out : outcomes) {
    st.delivered += out.delivered;
    st.hops += out.hops;
    st.retries += out.retries;
    st.bloom_fp += out.bloom_fp;
    st.latency_sum += out.latency;
  }
  if (!outcomes.empty()) {
    std::vector<std::uint32_t> latencies;
    latencies.reserve(outcomes.size());
    for (const Outcome& out : outcomes) latencies.push_back(out.latency);
    std::sort(latencies.begin(), latencies.end());
    const auto nearest_rank = [&](double q) {
      const std::size_t rank = static_cast<std::size_t>(
          std::max<double>(1.0, std::ceil(q * latencies.size())));
      return latencies[rank - 1];
    };
    st.latency_p50 = nearest_rank(0.50);
    st.latency_p95 = nearest_rank(0.95);
  }
  obs::Recorder* rec = obs::recorder_or_global(recorder);
  if (rec != nullptr) {
    rec->metrics().add("service/requests", st.requests);
    rec->metrics().add("service/delivered", st.delivered);
    rec->metrics().add("service/hops", st.hops);
    rec->metrics().add("service/retries", st.retries);
    rec->metrics().add("service/bloom_fp", st.bloom_fp);
    for (const Outcome& out : outcomes) {
      rec->metrics().observe("service/latency", out.latency);
    }
  }
  // Each stretch sample costs a BFS: compute it once, feed both BatchStats
  // and the recorder.
  if (opts_.stretch_sample_stride > 0) {
    double stretch_sum = 0.0;
    for (std::size_t i = 0; i < outcomes.size();
         i += opts_.stretch_sample_stride) {
      const Outcome& out = outcomes[i];
      if (out.delivered == 0 || out.provider == requests[i].src) continue;
      const auto d = graph::hop_distance(g_, requests[i].src, out.provider);
      if (d == 0) continue;
      const double stretch =
          static_cast<double>(out.hops) / static_cast<double>(d);
      stretch_sum += stretch;
      ++st.stretch_samples;
      if (rec != nullptr) rec->metrics().observe("service/stretch", stretch);
    }
    if (st.stretch_samples > 0) {
      st.mean_stretch = stretch_sum / static_cast<double>(st.stretch_samples);
    }
  }
  return st;
}

std::vector<Outcome> ServingEngine::serve_batch(
    std::span<const Request> requests, BatchStats* stats,
    obs::Recorder* recorder) const {
  std::vector<Outcome> outcomes(requests.size());
  const BatchStats st = serve_batch(requests, outcomes, recorder);
  if (stats != nullptr) *stats = st;
  return outcomes;
}

double ServingEngine::predicted_fp_rate() const {
  if (blooms_.empty()) return 0.0;
  double sum = 0.0;
  for (const BloomFilter& bloom : blooms_) sum += bloom.predicted_fp_rate();
  return sum / static_cast<double>(blooms_.size());
}

std::vector<Request> uniform_requests(const ServiceRegistry& registry,
                                      std::size_t count, std::uint64_t seed) {
  WCDS_REQUIRE(registry.node_count() > 0, "uniform_requests: empty network");
  WCDS_REQUIRE(registry.advertisement_count() > 0,
               "uniform_requests: nothing is advertised");
  std::vector<Request> requests(count);
  for (std::size_t i = 0; i < count; ++i) {
    geom::Xoshiro256ss rng = request_rng(seed, 0xAD5e11ceULL, i);
    requests[i].src = static_cast<NodeId>(
        rng.next_below(registry.node_count()));
    // Resample until the service has a provider somewhere, so a perfect
    // radio can deliver every request.
    for (;;) {
      const auto s =
          static_cast<ServiceId>(rng.next_below(registry.service_count()));
      if (!registry.providers_of(s).empty()) {
        requests[i].service = s;
        break;
      }
    }
  }
  return requests;
}

}  // namespace wcds::service
