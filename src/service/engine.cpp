#include "service/engine.h"

#include <algorithm>
#include <cmath>
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

// The inter-domain candidates of one request in ascending (overlay
// distance, head index) order, produced one at a time.  A candidate's key
// packs both into one integer; the next candidate is the smallest key above
// the last one handed out.  Almost every request stops at its first
// candidate, so the first kLazyProbes picks are min-scans over the
// candidate list and the clusterhead's distance row; a request still
// probing after that sorts its remaining keys once in a per-thread buffer,
// which keeps a long false-positive chain O(m log m) instead of O(m^2).
class NearestFirst {
 public:
  NearestFirst(std::span<const std::uint32_t> candidates,
               std::span<const std::uint16_t> distance_row,
               std::uint32_t own_index)
      : candidates_(candidates),
        row_(distance_row),
        // The own domain is the only one at distance 0 and has already
        // answered, so starting just past its key skips it.
        last_(key(0, own_index)) {}

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

  static std::uint64_t key(std::uint16_t distance, std::uint32_t idx) {
    return (std::uint64_t{distance} << 32) | idx;
  }
  static std::vector<std::uint64_t>& rest() {
    thread_local std::vector<std::uint64_t> buffer;
    return buffer;
  }

  std::uint64_t smallest_above(std::uint64_t after) const {
    std::uint64_t best = kUnreachable;
    for (const std::uint32_t idx : candidates_) {
      const std::uint64_t k = key(row_[idx], idx);
      if (k > after && k < best) best = k;
    }
    return best == kUnreachable ? kNone : best;
  }

  void sort_rest() const {
    std::vector<std::uint64_t>& buffer = rest();
    buffer.clear();
    for (const std::uint32_t idx : candidates_) {
      const std::uint64_t k = key(row_[idx], idx);
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

  // Exact per-domain provider tables as one CSR over (head, service).
  prov_off_.assign(heads * services + 1, 0);
  for (NodeId u = 0; u < n; ++u) {
    for (const ServiceId s : registry.services_at(u)) {
      ++prov_off_[domain[u] * services + s + 1];
    }
  }
  for (std::size_t i = 1; i < prov_off_.size(); ++i) {
    prov_off_[i] += prov_off_[i - 1];
  }
  prov_.resize(registry.advertisement_count());
  std::vector<std::uint32_t> cursor(prov_off_.begin(), prov_off_.end() - 1);
  for (NodeId u = 0; u < n; ++u) {  // ascending u => sorted provider runs
    for (const ServiceId s : registry.services_at(u)) {
      prov_[cursor[domain[u] * services + s]++] = u;
    }
  }

  // Clusterhead Bloom summaries: one insertion per distinct (domain,
  // service) advertisement, sized to the domain's distinct service count.
  blooms_.reserve(heads);
  for (std::size_t h = 0; h < heads; ++h) {
    std::size_t distinct = 0;
    for (std::size_t s = 0; s < services; ++s) {
      const std::size_t cell = h * services + s;
      if (prov_off_[cell + 1] > prov_off_[cell]) ++distinct;
    }
    BloomFilter bloom(opts_.bloom, distinct);
    for (std::size_t s = 0; s < services; ++s) {
      const std::size_t cell = h * services + s;
      if (prov_off_[cell + 1] > prov_off_[cell]) {
        bloom.insert(registry.key(static_cast<ServiceId>(s)));
      }
    }
    blooms_.push_back(std::move(bloom));
  }

  // Bloom-positive domains per service: the candidate universe a requesting
  // clusterhead works through (includes false positives by design).
  advertisers_.assign(services, {});
  for (std::size_t s = 0; s < services; ++s) {
    const std::uint64_t key = registry.key(static_cast<ServiceId>(s));
    for (std::uint32_t h = 0; h < heads; ++h) {
      if (blooms_[h].may_contain(key)) advertisers_[s].push_back(h);
    }
  }

  // Fault plan digestion: crash windows per node, per-link drop table.
  const fault::Plan* plan = opts_.faults;
  if (plan != nullptr) {
    any_faults_ = plan->drop > 0.0 || !plan->crashes.empty() ||
                  !plan->link_overrides.empty();
    if (!plan->crashes.empty()) {
      crash_.resize(n);
      for (const fault::CrashWindow& w : plan->crashes) {
        WCDS_REQUIRE_BOUNDS(w.node < n, "ServingEngine: crash node range");
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
  std::uint32_t backoff = opts_.retry_timeout;
  const std::uint32_t backoff_cap = opts_.retry_timeout * 16;
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
        // wcds-lint: allow(rng-draw-discipline)
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
    backoff = std::min(backoff * 2, backoff_cap);
  }
}

bool ServingEngine::walk_overlay(std::uint32_t from, std::uint32_t to,
                                 geom::Xoshiro256ss& rng, std::uint32_t& now,
                                 Outcome& out) const {
  const std::span<const NodeId> heads = router_.heads();
  while (from != to) {
    const std::uint32_t step = router_.next_head_index(from, to);
    if (step == kNoHeadIndex) return false;  // overlay disconnected
    const routing::ClusterheadRouter::Leg leg = router_.leg(from, step);
    NodeId prev = heads[from];
    if (!transmit(prev, leg.via1, rng, now, out)) return false;
    prev = leg.via1;
    if (leg.via2 != kInvalidNode) {
      if (!transmit(prev, leg.via2, rng, now, out)) return false;
      prev = leg.via2;
    }
    if (!transmit(prev, heads[step], rng, now, out)) return false;
    from = step;
  }
  return true;
}

NodeId ServingEngine::domain_provider(std::uint32_t head_index,
                                      ServiceId service) const {
  const std::size_t cell =
      static_cast<std::size_t>(head_index) * registry_.service_count() +
      service;
  if (prov_off_[cell + 1] == prov_off_[cell]) return kInvalidNode;
  return prov_[prov_off_[cell]];  // smallest node id in the domain
}

Outcome ServingEngine::serve(const Request& request,
                             std::uint64_t request_index) const {
  WCDS_DCHECK(request.src < g_.node_count(), "serve: source out of range");
  WCDS_DCHECK(request.service < registry_.service_count(),
              "serve: service out of range");
  Outcome out;
  const NodeId src = request.src;
  const ServiceId s = request.service;

  // 1. Local: the source provides the service itself — no radio involved.
  if (registry_.provides(src, s)) {
    out.provider = src;
    out.delivered = 1;
    out.resolution = Resolution::kLocal;
    return out;
  }

  geom::Xoshiro256ss rng = request_rng(
      opts_.faults != nullptr ? opts_.faults->seed : 0, opts_.rng_salt,
      request_index);
  std::uint32_t now = 0;

  // 2. Neighbor: the smallest adjacent provider, one direct hop (the
  // paper's single-hop rule for adjacent pairs; CSR rows are ascending).
  for (const NodeId v : g_.neighbors(src)) {
    if (!registry_.provides(v, s)) continue;
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

  // 3. Intra-domain: the clusterhead's exact table has a provider.
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
  // previous probe ended.
  const std::span<const NodeId> heads = router_.heads();
  NearestFirst order(advertisers_[s], router_.distance_row(head_idx),
                     head_idx);
  std::uint32_t at = head_idx;
  for (std::uint32_t idx = order.pop(); idx != kNoHeadIndex;
       idx = order.pop()) {
    if (!walk_overlay(at, idx, rng, now, out)) {
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
