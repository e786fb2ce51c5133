// Whole-path benchmark program for the WCDS library.
//
// A run first brings up the standing network along the full path the
// library serves -- deployment -> unit-disk graph -> backbone construction
// in all four modes -> paper-invariant audit -> serving engine -> maintained
// backbone, with a short warm-up of requests and churn events -- seven
// times from the same seed (set-up), then measures one workload against the
// last copy for a fixed wall time:
//
//   construct  one op builds a verified, serving-ready backbone from a fresh
//              1024-node deployment: UDG, the four construction modes each
//              followed by its audit, then the serving engine over the
//              Algorithm II backbone;
//   serve      one op is one service request on the standing 8192-node
//              network, sent by a single closed-loop client;
//   churn      one op is one mobility or radio on/off event repaired by the
//              maintained 4096-node backbone.
//
// Usage:
//   pathbench --workload construct|serve|churn --seed N --seconds S
//                    --trace 0|1 [--trace-out FILE]
//
// The last line on stdout is one JSON object with the keys correct,
// attempted, failed and metrics.  With --trace 0 the metrics are the
// end-to-end ones: op rate (see windowed_rate) and set-up time.  One
// closed-loop client issues the ops, so a window's op rate is the inverse
// of its mean op latency.  The median op latency is a per-layer metric: on a
// shared host it jumps between the host's fast and slow stretches from run
// to run.  With --trace 1 the program records a span around every call it
// makes into a
// library layer (name, start, end, enclosing span, allocations made, bytes
// left live) and reports per-layer metrics instead; --trace-out writes the
// spans as a Chrome trace-event file.  Inputs are a pure function of
// --seed, and every output is checked as it is produced: "attempted" counts
// the set-up bring-ups and the measured ops, "failed" those whose output
// failed its check.
#include <malloc.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "check/audit.h"
#include "check/check.h"
#include "facade/build.h"
#include "geom/point.h"
#include "geom/rng.h"
#include "geom/workload.h"
#include "graph/bfs.h"
#include "graph/graph.h"
#include "maintenance/dynamic_wcds.h"
#include "service/engine.h"
#include "service/registry.h"
#include "udg/udg.h"
#include "wcds/verify.h"

// Allocation accounting: every heap allocation in the process passes through
// these replacements, so a span can report how many allocations a layer call
// made and how many bytes it left live (the footprint of what it built).
namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::int64_t> g_live_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }

namespace {

using namespace wcds;

constexpr double kDegree = 16.0;               // expected UDG degree
constexpr std::size_t kServiceUniverse = 256;  // distinct service names
constexpr std::size_t kServicesPerNode = 2;
constexpr std::size_t kRequestPool = 1u << 16;
constexpr std::size_t kWarmRequests = 1024;
constexpr std::size_t kWarmEvents = 8;
constexpr int kSetupReps = 7;
// A request takes a few microseconds, so the trace keeps every 64th one;
// every other layer call is traced.
constexpr std::uint64_t kServeTraceStride = 64;
// The maintained backbone's global audit costs as much as dozens of events,
// so churn audits every 128th event and once at the end.
constexpr std::uint64_t kChurnAuditStride = 128;
constexpr double kMoveRadius = 0.5;  // per-axis displacement of a move event
constexpr std::int64_t kRateWindowNs = 1'000'000'000;  // see windowed_rate

struct Workload {
  std::string_view name;
  std::uint32_t nodes;
};

constexpr std::array<Workload, 3> kWorkloads = {{
    {"construct", 1024},
    {"serve", 8192},
    {"churn", 4096},
}};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Independent reproducible input streams derived from the run seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  geom::SplitMix64 mix(seed * 0x100000001B3ULL + stream);
  mix.next();
  return mix.next();
}

// ---------------------------------------------------------------------------
// Spans

enum Layer : std::uint8_t {
  kSetup,
  kOp,
  kDeploy,
  kUdg,
  kBuildAlg1Central,
  kBuildAlg2Central,
  kBuildAlg1Protocol,
  kBuildAlg2Protocol,
  kAudit,
  kEngine,
  kServe,
  kDynamicInit,
  kMaintain,
  kLayerCount,
};

constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "setup",
    "op",
    "deploy",
    "udg",
    "build_alg1_central",
    "build_alg2_central",
    "build_alg1_protocol",
    "build_alg2_protocol",
    "audit",
    "engine",
    "serve",
    "dynamic_init",
    "maintain",
};

constexpr std::uint32_t kNoSpan = 0xFFFFFFFFu;

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t allocations = 0;    // made while the span was open
  std::int64_t retained_bytes = 0;  // live-heap growth across the span
  std::uint64_t op = 0;             // set-up rep or op index it served
  std::uint32_t parent = kNoSpan;   // enclosing span
  Layer layer = kOp;
};

// In-memory span recorder.  When disabled, open() returns kNoSpan without
// reading a clock, so untraced runs pay nothing beyond their op timing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1u << 16);
  }

  std::uint32_t open(Layer layer, std::uint64_t op) {
    if (!enabled_) return kNoSpan;
    const auto index = static_cast<std::uint32_t>(spans_.size());
    Span& span = spans_.emplace_back();
    span.layer = layer;
    span.op = op;
    span.parent = open_.empty() ? kNoSpan : open_.back();
    open_.push_back(index);
    span.allocations = g_allocations.load(std::memory_order_relaxed);
    span.retained_bytes = g_live_bytes.load(std::memory_order_relaxed);
    span.start_ns = now_ns();
    return index;
  }

  void close(std::uint32_t index) {
    if (index == kNoSpan) return;
    const std::int64_t end = now_ns();
    Span& span = spans_[index];
    span.end_ns = end;
    span.allocations =
        g_allocations.load(std::memory_order_relaxed) - span.allocations;
    span.retained_bytes =
        g_live_bytes.load(std::memory_order_relaxed) - span.retained_bytes;
    open_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;  // stack of open span indices
};

class Scope {
 public:
  Scope(Tracer& tracer, Layer layer, std::uint64_t op, bool record = true)
      : tracer_(tracer), index_(record ? tracer.open(layer, op) : kNoSpan) {}
  ~Scope() { tracer_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t index_;
};

// Work counts the layers return, accumulated over the whole run.
struct Counters {
  std::uint64_t constructions = 0;  // construct() calls, one build per mode
  std::uint64_t alg1_transmissions = 0;
  std::uint64_t alg2_transmissions = 0;
  std::uint64_t backbone_nodes = 0;  // Algorithm II (central) |U| summed
  std::uint64_t requests = 0;
  std::uint64_t hops = 0;
  std::uint64_t bloom_fp = 0;
  std::uint64_t events = 0;
  std::uint64_t region_nodes = 0;
  std::uint64_t router_table_entries = 0;  // standing network's engine
};

// Set-up bring-ups plus measured ops, and how many of them produced an
// output that failed its check.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

// ---------------------------------------------------------------------------
// The path

struct Deployment {
  std::vector<geom::Point> points;
  graph::Graph g;
};

// A connected uniform deployment at expected degree kDegree; the square
// shrinks 1% per disconnected draw, as the repository's experiment instances
// do, so the result is a pure function of (nodes, seed).
Deployment deploy(std::uint32_t nodes, std::uint64_t seed, Tracer& tracer,
                  std::uint64_t op) {
  double side = geom::side_for_expected_degree(nodes, kDegree);
  for (std::uint64_t attempt = 0; attempt < 256; ++attempt) {
    Deployment d;
    {
      Scope span(tracer, kDeploy, op);
      d.points = geom::uniform_square(nodes, side, seed + attempt);
    }
    {
      Scope span(tracer, kUdg, op);
      d.g = udg::build_udg(d.points);
    }
    if (graph::is_connected(d.g)) return d;
    side *= 0.99;
  }
  throw std::runtime_error("no connected deployment for this seed");
}

struct Mode {
  core::BuildAlgorithm algorithm;
  Layer layer;
  bool level_ranked;  // Algorithm I: audit Theorem 4 under (level, ID) ranks
};

constexpr std::array<Mode, 4> kModes = {{
    {core::BuildAlgorithm::kAlgorithm1Central, kBuildAlg1Central, true},
    {core::BuildAlgorithm::kAlgorithm2Central, kBuildAlg2Central, false},
    {core::BuildAlgorithm::kAlgorithm1Protocol, kBuildAlg1Protocol, true},
    {core::BuildAlgorithm::kAlgorithm2Protocol, kBuildAlg2Protocol, false},
}};
constexpr std::size_t kAlg2Central = 1;
constexpr std::size_t kAlg1Protocol = 2;
constexpr std::size_t kAlg2Protocol = 3;

using Backbones = std::array<core::BuildReport, kModes.size()>;

// Builds the backbone in every mode and audits each; false when an audit
// found a violated lemma or theorem.  Algorithm II is audited with the
// unit-disk packing bounds, Algorithm I under its (level, ID) ranking.
bool construct(const graph::Graph& g, Backbones& out, Counters& counters,
               Tracer& tracer, std::uint64_t op) {
  bool audited = true;
  for (std::size_t m = 0; m < kModes.size(); ++m) {
    core::BuildOptions options;
    options.algorithm = kModes[m].algorithm;
    options.threads = 1;
    {
      Scope span(tracer, kModes[m].layer, op);
      out[m] = core::build(g, options);
    }
    check::AuditOptions audit;
    audit.unit_disk = !kModes[m].level_ranked;
    audit.level_ranked = kModes[m].level_ranked;
    Scope span(tracer, kAudit, op);
    try {
      check::audit_invariants(g, out[m].result, audit);
    } catch (const check::CheckError& e) {
      std::cerr << "perfbench: audit failed: " << e.what() << "\n";
      audited = false;
    }
  }
  ++counters.constructions;
  counters.alg1_transmissions += out[kAlg1Protocol].stats.transmissions;
  counters.alg2_transmissions += out[kAlg2Protocol].stats.transmissions;
  counters.backbone_nodes += out[kAlg2Central].result.size();
  return audited;
}

// Every backbone is a WCDS of g, and Algorithm II's ID-ranked MIS does not
// depend on message timing, so both Algorithm II modes agree on it.
bool backbones_ok(const graph::Graph& g, const Backbones& backbones) {
  for (const auto& report : backbones) {
    if (!core::is_wcds(g, report.result.mask)) return false;
  }
  return backbones[kAlg2Central].result.mis_dominators ==
         backbones[kAlg2Protocol].result.mis_dominators;
}

std::unique_ptr<service::ServingEngine> make_engine(
    const graph::Graph& g, const core::BuildReport& alg2,
    const service::ServiceRegistry& registry, Tracer& tracer,
    std::uint64_t op) {
  Scope span(tracer, kEngine, op);
  return std::make_unique<service::ServingEngine>(g, alg2.algorithm2_view(),
                                                  registry);
}

// The engine routes through one clusterhead per Algorithm II MIS dominator.
bool engine_ok(const service::ServingEngine& engine,
               const core::BuildReport& alg2) {
  return engine.router().clusterhead_count() ==
         alg2.result.mis_dominators.size();
}

// On a perfect radio every request reaches a node that provides the service.
bool served_ok(const service::ServiceRegistry& registry,
               const service::Request& request,
               const service::Outcome& outcome) {
  return outcome.delivered == 1 && outcome.provider < registry.node_count() &&
         registry.provides(outcome.provider, request.service);
}

geom::BoundingBox bounding_box(const std::vector<geom::Point>& points) {
  geom::BoundingBox box{points.front(), points.front()};
  for (const auto& p : points) box.expand(p);
  return box;
}

// Mobility and radio on/off events: 80% move a node by up to kMoveRadius
// per axis (clamped to the deployment's box), 10% switch an active node off,
// 10% switch the most recently switched-off node back on.  A pure function
// of the seed and the event count.
class Churn {
 public:
  Churn(std::uint64_t seed, const geom::BoundingBox& box)
      : rng_(seed), box_(box) {}

  maintenance::RepairReport apply(maintenance::DynamicWcds& net) {
    const auto kind = rng_.next_below(10);
    if (kind == 9 && !off_.empty()) {
      const NodeId u = off_.back();
      off_.pop_back();
      return net.activate(u);
    }
    const auto u = static_cast<NodeId>(rng_.next_below(net.node_count()));
    if (kind == 8 && net.is_active(u)) {
      off_.push_back(u);
      return net.deactivate(u);
    }
    geom::Point p = net.position(u);
    p.x = std::clamp(p.x + rng_.next_double(-kMoveRadius, kMoveRadius),
                     box_.min.x, box_.max.x);
    p.y = std::clamp(p.y + rng_.next_double(-kMoveRadius, kMoveRadius),
                     box_.min.y, box_.max.y);
    return net.move_node(u, p);
  }

 private:
  geom::Xoshiro256ss rng_;
  geom::BoundingBox box_;
  std::vector<NodeId> off_;
};

// The standing network every workload starts from.  The engine borrows the
// graph, the Algorithm II report and the registry, so a Network never moves
// once built, and members are destroyed engine-first.
struct Network {
  Deployment deployment;
  Backbones backbones;
  std::unique_ptr<service::ServiceRegistry> registry;
  std::vector<service::Request> requests;
  std::unique_ptr<service::ServingEngine> engine;
  std::unique_ptr<maintenance::DynamicWcds> dynamic;
  std::unique_ptr<Churn> churn;
  bool checked = true;  // every output produced during bring-up checked out
};

struct Timed {
  std::int64_t ns;
  bool ok;
};

// Serves request `i` of the pool and checks the outcome.
Timed serve_one(const Network& net, std::uint64_t i, Counters& counters,
                Tracer& tracer) {
  const service::Request& request = net.requests[i % net.requests.size()];
  service::Outcome outcome;
  const std::int64_t start = now_ns();
  {
    Scope span(tracer, kServe, i, i % kServeTraceStride == 0);
    outcome = net.engine->serve(request, i);
  }
  const std::int64_t ns = now_ns() - start;
  ++counters.requests;
  counters.hops += outcome.hops;
  counters.bloom_fp += outcome.bloom_fp;
  return {ns, served_ok(*net.registry, request, outcome)};
}

// Applies churn event `i` to the maintained backbone and returns its repair
// latency in nanoseconds.
std::int64_t churn_one(Network& net, std::uint64_t i, Counters& counters,
                       Tracer& tracer) {
  maintenance::RepairReport report;
  const std::int64_t start = now_ns();
  {
    Scope span(tracer, kMaintain, i);
    report = net.churn->apply(*net.dynamic);
  }
  const std::int64_t ns = now_ns() - start;
  ++counters.events;
  counters.region_nodes += report.region_size;
  return ns;
}

std::unique_ptr<Network> bring_up(std::uint32_t nodes, std::uint64_t seed,
                                  Counters& counters, Tracer& tracer,
                                  std::uint64_t rep) {
  auto net = std::make_unique<Network>();
  net->deployment = deploy(nodes, derive(seed, 1), tracer, rep);
  const graph::Graph& g = net->deployment.g;
  net->checked = construct(g, net->backbones, counters, tracer, rep);
  net->registry = std::make_unique<service::ServiceRegistry>(
      service::uniform_registry(nodes, kServiceUniverse, kServicesPerNode,
                                derive(seed, 2)));
  net->requests =
      service::uniform_requests(*net->registry, kRequestPool, derive(seed, 3));
  net->engine = make_engine(g, net->backbones[kAlg2Central], *net->registry,
                            tracer, rep);
  {
    Scope span(tracer, kDynamicInit, rep);
    net->dynamic =
        std::make_unique<maintenance::DynamicWcds>(net->deployment.points);
  }
  net->churn = std::make_unique<Churn>(
      derive(seed, 4), bounding_box(net->deployment.points));

  // Warm-up: a little traffic and churn, so every layer has run before the
  // measured loop.
  for (std::uint64_t i = 0; i < kWarmRequests; ++i) {
    net->checked &= serve_one(*net, i, counters, tracer).ok;
  }
  for (std::uint64_t e = 0; e < kWarmEvents; ++e) {
    churn_one(*net, e, counters, tracer);
  }
  return net;
}

// Set-up output checks, run outside the timed region.
bool network_ok(const Network& net) {
  const graph::Graph& g = net.deployment.g;
  return net.checked && backbones_ok(g, net.backbones) &&
         engine_ok(*net.engine, net.backbones[kAlg2Central]) &&
         net.dynamic->audit().ok();
}

// ---------------------------------------------------------------------------
// Measured loops: each appends one latency sample per op.

void run_construct(const Workload& w, std::uint64_t seed, std::int64_t budget,
                   const Network& standing, Counters& counters, Tally& tally,
                   Tracer& tracer, std::vector<std::int64_t>& op_ns) {
  const std::int64_t loop_start = now_ns();
  for (std::uint64_t i = 0; now_ns() - loop_start < budget; ++i) {
    Deployment d;
    Backbones backbones;
    std::unique_ptr<service::ServingEngine> engine;
    bool audited = false;
    const std::int64_t start = now_ns();
    {
      Scope span(tracer, kOp, i);
      d = deploy(w.nodes, derive(seed, 1000 + i), tracer, i);
      audited = construct(d.g, backbones, counters, tracer, i);
      engine = make_engine(d.g, backbones[kAlg2Central], *standing.registry,
                           tracer, i);
    }
    op_ns.push_back(now_ns() - start);
    ++tally.attempted;
    if (!audited || !backbones_ok(d.g, backbones) ||
        !engine_ok(*engine, backbones[kAlg2Central])) {
      ++tally.failed;
    }
  }
}

void run_serve(std::int64_t budget, const Network& net, Counters& counters,
               Tally& tally, Tracer& tracer,
               std::vector<std::int64_t>& op_ns) {
  const std::int64_t loop_start = now_ns();
  for (std::uint64_t i = 0; now_ns() - loop_start < budget; ++i) {
    const Timed served = serve_one(net, i, counters, tracer);
    op_ns.push_back(served.ns);
    ++tally.attempted;
    if (!served.ok) ++tally.failed;
  }
}

void run_churn(std::int64_t budget, Network& net, Counters& counters,
               Tally& tally, Tracer& tracer,
               std::vector<std::int64_t>& op_ns) {
  const std::int64_t loop_start = now_ns();
  for (std::uint64_t i = 0; now_ns() - loop_start < budget; ++i) {
    op_ns.push_back(churn_one(net, i, counters, tracer));
    ++tally.attempted;
    if ((i + 1) % kChurnAuditStride == 0 && !net.dynamic->audit().ok()) {
      ++tally.failed;
    }
  }
  if (!net.dynamic->audit().ok()) ++tally.failed;
}

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Nearest-rank quantile: the ceil(q * n)-th smallest value.  Reorders
// `values` in place.
template <typename T>
double quantile(std::vector<T>& values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return static_cast<double>(values[index]);
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

// Op rate in consecutive windows of kRateWindowNs of op time, read at the
// 90th percentile across windows (the whole run when it is shorter than one
// window).  The host lends this program a share of a core that drops by up
// to ~1.4x for stretches of seconds, covering anywhere from none to most of
// a run; the fastest windows measure the program rather than that share.
double windowed_rate(const std::vector<std::int64_t>& op_ns) {
  std::vector<double> rates;
  std::int64_t busy = 0;
  std::size_t count = 0;
  for (const std::int64_t ns : op_ns) {
    busy += ns;
    ++count;
    if (busy >= kRateWindowNs) {
      rates.push_back(static_cast<double>(count) * 1e9 /
                      static_cast<double>(busy));
      busy = 0;
      count = 0;
    }
  }
  if (rates.empty()) {
    rates.push_back(static_cast<double>(count) * 1e9 /
                    static_cast<double>(busy));
  }
  return quantile(rates, 0.9);
}

std::vector<Metric> end_to_end_metrics(const std::vector<std::int64_t>& op_ns,
                                       std::vector<double>& setup_s) {
  return {
      {"ops_per_s", windowed_rate(op_ns), "1/s"},
      {"setup_s", quantile(setup_s, 0.5), "s"},
  };
}

std::vector<Metric> per_layer_metrics(const Tracer& tracer,
                                      const Counters& counters,
                                      std::vector<std::int64_t>& op_ns) {
  std::array<std::vector<double>, kLayerCount> ms;
  std::array<std::vector<double>, kLayerCount> retained;
  std::array<std::uint64_t, kLayerCount> allocations{};
  for (const Span& span : tracer.spans()) {
    ms[span.layer].push_back(static_cast<double>(span.end_ns - span.start_ns) *
                             1e-6);
    retained[span.layer].push_back(static_cast<double>(span.retained_bytes));
    allocations[span.layer] += span.allocations;
  }
  const auto median_ms = [&](Layer layer) { return quantile(ms[layer], 0.5); };
  const auto allocs_per_call = [&](Layer layer) {
    return ratio(allocations[layer], ms[layer].size());
  };
  const std::uint64_t builds = counters.constructions;
  return {
      {"op_p50_ms", quantile(op_ns, 0.5) * 1e-6, "ms"},
      {"deploy_ms", median_ms(kDeploy), "ms"},
      {"udg_ms", median_ms(kUdg), "ms"},
      {"build_alg1_central_ms", median_ms(kBuildAlg1Central), "ms"},
      {"build_alg2_central_ms", median_ms(kBuildAlg2Central), "ms"},
      {"build_alg1_protocol_ms", median_ms(kBuildAlg1Protocol), "ms"},
      {"build_alg2_protocol_ms", median_ms(kBuildAlg2Protocol), "ms"},
      {"audit_ms", median_ms(kAudit), "ms"},
      {"engine_ms", median_ms(kEngine), "ms"},
      {"serve_us", median_ms(kServe) * 1e3, "us"},
      {"dynamic_init_ms", median_ms(kDynamicInit), "ms"},
      {"maintain_ms", median_ms(kMaintain), "ms"},
      {"udg_allocs", allocs_per_call(kUdg), "count"},
      {"build_alg1_protocol_allocs", allocs_per_call(kBuildAlg1Protocol),
       "count"},
      {"build_alg2_protocol_allocs", allocs_per_call(kBuildAlg2Protocol),
       "count"},
      {"audit_allocs", allocs_per_call(kAudit), "count"},
      {"engine_allocs", allocs_per_call(kEngine), "count"},
      {"serve_allocs", allocs_per_call(kServe), "count"},
      {"maintain_allocs", allocs_per_call(kMaintain), "count"},
      {"engine_bytes", quantile(retained[kEngine], 0.5), "bytes"},
      {"dynamic_bytes", quantile(retained[kDynamicInit], 0.5), "bytes"},
      {"router_table_entries",
       static_cast<double>(counters.router_table_entries), "count"},
      {"alg1_protocol_tx", ratio(counters.alg1_transmissions, builds),
       "count"},
      {"alg2_protocol_tx", ratio(counters.alg2_transmissions, builds),
       "count"},
      {"backbone_size", ratio(counters.backbone_nodes, builds), "count"},
      {"serve_hops", ratio(counters.hops, counters.requests), "count"},
      {"serve_bloom_fp", ratio(counters.bloom_fp, counters.requests),
       "count"},
      {"maintain_region", ratio(counters.region_nodes, counters.events),
       "count"},
  };
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += tally.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(tally.attempted);
  line += ", \"failed\": " + std::to_string(tally.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value =
        std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", value);
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + number +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

void write_trace(const std::string& path, const Tracer& tracer) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + path);
  const auto& spans = tracer.spans();
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(out, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(
        out,
        "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
        "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
        "\"parent\": %lld, \"op\": %llu, \"allocations\": %llu, "
        "\"retained_bytes\": %lld}}",
        i == 0 ? "" : ",\n", kLayerNames[s.layer],
        static_cast<double>(s.start_ns - origin) * 1e-3,
        static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
        s.parent == kNoSpan ? -1LL : static_cast<long long>(s.parent),
        static_cast<unsigned long long>(s.op),
        static_cast<unsigned long long>(s.allocations),
        static_cast<long long>(s.retained_bytes));
  }
  std::fprintf(out, "\n]}\n");
  if (std::fclose(out) != 0) throw std::runtime_error("cannot write " + path);
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string_view key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for flag");
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (w.name == value) args.workload = &w;
      }
      if (args.workload == nullptr) {
        throw std::invalid_argument("unknown workload " + value);
      }
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + std::string(key));
    }
  }
  if (args.workload == nullptr || !have_seed || !(args.seconds > 0.0)) {
    throw std::invalid_argument(
        "usage: pathbench --workload construct|serve|churn --seed N "
        "--seconds S --trace 0|1 [--trace-out FILE]");
  }
  return args;
}

int run(const Args& args) {
  // One thread: the library's parallel loops run inline, so timings do not
  // depend on how many cores the machine lends the run.
  setenv("WCDS_THREADS", "1", 1);
  // Audits run as their own traced layer, not inside every build and event.
  check::set_audits_enabled(false);

  const Workload& w = *args.workload;
  Tracer tracer(args.trace);
  Counters counters;
  Tally tally;

  std::vector<double> setup_s;
  std::unique_ptr<Network> net;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    net.reset();
    const std::int64_t start = now_ns();
    {
      Scope span(tracer, kSetup, static_cast<std::uint64_t>(rep));
      net = bring_up(w.nodes, args.seed, counters, tracer,
                     static_cast<std::uint64_t>(rep));
    }
    setup_s.push_back(static_cast<double>(now_ns() - start) * 1e-9);
    ++tally.attempted;
    if (!network_ok(*net)) ++tally.failed;
  }
  counters.router_table_entries = net->engine->router().table_entries();

  const auto budget = static_cast<std::int64_t>(args.seconds * 1e9);
  std::vector<std::int64_t> op_ns;
  if (w.name == "construct") {
    run_construct(w, args.seed, budget, *net, counters, tally, tracer, op_ns);
  } else if (w.name == "serve") {
    op_ns.reserve(1u << 23);
    run_serve(budget, *net, counters, tally, tracer, op_ns);
  } else {
    run_churn(budget, *net, counters, tally, tracer, op_ns);
  }

  const auto metrics = args.trace
                           ? per_layer_metrics(tracer, counters, op_ns)
                           : end_to_end_metrics(op_ns, setup_s);
  if (!args.trace_out.empty()) write_trace(args.trace_out, tracer);
  std::cerr << "perfbench: " << w.name << " n=" << w.nodes
            << " seed=" << args.seed << " attempted=" << tally.attempted
            << " failed=" << tally.failed << "\n";
  print_result(tally, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "pathbench: " << e.what() << "\n";
    return 1;
  }
}
