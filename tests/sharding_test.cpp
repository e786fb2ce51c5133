// Component-sharded execution (sim/sharded.h, protocols/run_components.h):
// a protocol run on the thread pool must be byte-identical to the 1-thread
// (inline serial) composition at any thread count — traces, RunStats,
// metrics and every protocol output — across both algorithms, both delay
// regimes, and fault plans.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "facade/build.h"
#include "fault/plan.h"
#include "geom/point.h"
#include "graph/bfs.h"
#include "graph/graph.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "protocols/algorithm1_protocol.h"
#include "protocols/algorithm2_protocol.h"
#include "sim/runtime.h"
#include "sim/shard_plan.h"
#include "sim/sharded.h"
#include "test_util.h"
#include "udg/udg.h"

namespace wcds {
namespace {

// `clusters` connected UDGs, spatially separated by far more than the unit
// radius, with node ids interleaved round-robin across clusters — so every
// component's id set is non-contiguous and the active-subset plumbing gets
// no help from memory layout.
testing::Instance multi_component_udg(std::size_t clusters, std::uint32_t per,
                                      double degree, std::uint64_t seed) {
  std::vector<std::vector<geom::Point>> parts(clusters);
  for (std::size_t i = 0; i < clusters; ++i) {
    auto inst = testing::connected_udg(per, degree, seed + 101 * i);
    for (auto& p : inst.points) p.x += 1000.0 * static_cast<double>(i);
    parts[i] = std::move(inst.points);
  }
  testing::Instance out;
  for (std::uint32_t j = 0; j < per; ++j) {
    for (std::size_t i = 0; i < clusters; ++i) out.points.push_back(parts[i][j]);
  }
  out.g = udg::build_udg(out.points);
  EXPECT_EQ(graph::connected_components(out.g).count, clusters);
  return out;
}

void expect_same_trace(const std::vector<obs::TraceEvent>& a,
                       const std::vector<obs::TraceEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "event " << i);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].src, b[i].src);
    EXPECT_EQ(a[i].dst, b[i].dst);
    EXPECT_EQ(a[i].message_type, b[i].message_type);
    EXPECT_EQ(a[i].queue_depth, b[i].queue_depth);
  }
}

// Metrics must match exactly except the wall-clock phase timings, which are
// the one legitimately nondeterministic family.
void expect_same_metrics(const obs::MetricsSnapshot& a,
                         const obs::MetricsSnapshot& b) {
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.gauges, b.gauges);
  const auto strip = [](const obs::MetricsSnapshot& snap) {
    std::map<std::string, std::vector<double>> out;
    for (const auto& [name, h] : snap.histograms) {
      if (name.rfind("phase_ms/", 0) == 0) continue;
      out[name] = {static_cast<double>(h.count), h.min, h.max,
                   h.mean, h.p50, h.p95};
    }
    return out;
  };
  EXPECT_EQ(strip(a), strip(b));
}

struct Capture {
  std::vector<obs::TraceEvent> trace;
  obs::MetricsSnapshot metrics;
};

template <typename Run>
std::pair<Run, Capture> run_captured(
    bool algorithm1, const graph::Graph& g, const sim::DelayModel& delays,
    const fault::Plan* faults, std::size_t threads) {
  static_cast<void>(algorithm1);
  obs::Recorder recorder;
  obs::MemoryTraceSink sink;
  recorder.set_trace_sink(&sink);
  Run run;
  if constexpr (std::is_same_v<Run, protocols::DistributedAlgorithm1Run>) {
    run = protocols::run_algorithm1(g, delays, &recorder, faults, threads);
  } else {
    run = protocols::run_algorithm2(g, delays, &recorder, faults, threads);
  }
  return {std::move(run), Capture{sink.events(), recorder.snapshot()}};
}

template <typename Run>
void expect_same_wcds(const Run& a, const Run& b) {
  EXPECT_EQ(a.wcds.dominators, b.wcds.dominators);
  EXPECT_EQ(a.wcds.mis_dominators, b.wcds.mis_dominators);
  EXPECT_EQ(a.wcds.additional_dominators, b.wcds.additional_dominators);
  EXPECT_EQ(a.wcds.mask, b.wcds.mask);
  EXPECT_EQ(a.stats, b.stats);
  if constexpr (std::is_same_v<Run, protocols::DistributedAlgorithm1Run>) {
    EXPECT_EQ(a.leader, b.leader);
    EXPECT_EQ(a.leaders, b.leaders);
    EXPECT_EQ(a.levels, b.levels);
  } else {
    EXPECT_EQ(a.three_hop, b.three_hop);
  }
}

// The tentpole differential: runs at threads {2, 8} must be byte-identical
// to the 1-thread run across 2 algorithms x 2 delay regimes x
// {perfect, faulty} radios x 8 seeds.
template <typename Run>
void differential_matrix() {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto inst = multi_component_udg(4, 25, 8.0, seed);
    for (const bool async : {false, true}) {
      for (const bool faulty : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "seed=" << seed << " async="
                                          << async << " faulty=" << faulty);
        const auto delays = async
                                ? sim::DelayModel::uniform(1, 5, 3 * seed + 1)
                                : sim::DelayModel::unit();
        const fault::Plan plan = fault::Plan::chaos(0.1, 0.05, 3, seed + 101);
        const fault::Plan* faults = faulty ? &plan : nullptr;
        const auto [base, base_cap] =
            run_captured<Run>(true, inst.g, delays, faults, 1);
        for (const std::size_t threads : {2u, 8u}) {
          SCOPED_TRACE(::testing::Message() << "threads=" << threads);
          const auto [sharded, cap] =
              run_captured<Run>(true, inst.g, delays, faults, threads);
          expect_same_wcds(base, sharded);
          expect_same_trace(base_cap.trace, cap.trace);
          expect_same_metrics(base_cap.metrics, cap.metrics);
        }
      }
    }
  }
}

TEST(Sharding, Algorithm1ShardedMatchesGlobal) {
  differential_matrix<protocols::DistributedAlgorithm1Run>();
}

TEST(Sharding, Algorithm2ShardedMatchesGlobal) {
  differential_matrix<protocols::DistributedWcdsRun>();
}

// A connected graph is one shard: it runs inline under the run's own seeds
// whatever the thread count, so 1 and 4 threads agree byte-for-byte, with
// the shard gauge pinned at 1.
TEST(Sharding, SingleGiantComponentDegenerates) {
  const auto inst = testing::connected_udg(200, 8.0, 3);
  const auto [base, base_cap] = run_captured<protocols::DistributedWcdsRun>(
      false, inst.g, sim::DelayModel::unit(), nullptr, 1);
  const auto [sharded, cap] = run_captured<protocols::DistributedWcdsRun>(
      false, inst.g, sim::DelayModel::unit(), nullptr, 4);
  expect_same_wcds(base, sharded);
  expect_same_trace(base_cap.trace, cap.trace);
  expect_same_metrics(base_cap.metrics, cap.metrics);
  ASSERT_TRUE(cap.metrics.gauges.contains("sim/shards"));
  EXPECT_EQ(cap.metrics.gauges.at("sim/shards"), 1.0);
}

// Every protocol build is a composition of shard runs, a connected one
// included: the `sim/shards` gauge and the `phase_ms/sim/shard_run`
// observations both count the deployment's components.
TEST(Sharding, EveryProtocolBuildRecordsItsShards) {
  const std::pair<testing::Instance, std::size_t> cases[] = {
      {testing::connected_udg(120, 8.0, 4), 1},
      {multi_component_udg(4, 25, 8.0, 4), 4}};
  for (const auto& [inst, components] : cases) {
    for (const auto algorithm : {core::BuildAlgorithm::kAlgorithm1Protocol,
                                 core::BuildAlgorithm::kAlgorithm2Protocol}) {
      SCOPED_TRACE(::testing::Message() << core::to_string(algorithm)
                                        << " components=" << components);
      obs::Recorder recorder;
      core::BuildOptions options;
      options.algorithm = algorithm;
      options.recorder = &recorder;
      const auto report = core::build(inst.g, options);
      ASSERT_TRUE(report.metrics.gauges.contains("sim/shards"));
      EXPECT_EQ(report.metrics.gauges.at("sim/shards"),
                static_cast<double>(components));
      ASSERT_TRUE(report.metrics.histograms.contains("phase_ms/sim/shard_run"));
      EXPECT_EQ(report.metrics.histograms.at("phase_ms/sim/shard_run").count,
                components);
    }
  }
}

// An edgeless graph is all singleton components; every node dominates its
// own component.
TEST(Sharding, IsolatedSingletons) {
  graph::GraphBuilder b(5);
  const auto g = std::move(b).build();
  const auto run1 = protocols::run_algorithm1(g);
  EXPECT_EQ(run1.wcds.dominators, (std::vector<NodeId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(run1.leaders, (std::vector<NodeId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(run1.levels, (std::vector<std::uint32_t>{0, 0, 0, 0, 0}));
  const auto run2 = protocols::run_algorithm2(g);
  EXPECT_EQ(run2.wcds.mis_dominators, (std::vector<NodeId>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(run2.wcds.additional_dominators.empty());
}

// A crash window blacking out a cut vertex mid-run "splits" its component
// at the radio level; the hardened transport must still converge, and the
// 2-thread run must equal the 1-thread one exactly.
TEST(Sharding, BlackoutSplittingComponentMidRun) {
  const auto g = graph::from_edges(
      10, {{0, 2}, {2, 4}, {4, 6}, {6, 8}, {1, 3}, {3, 5}, {5, 7}, {7, 9}});
  ASSERT_EQ(graph::connected_components(g).count, 2u);
  fault::Plan plan;
  plan.seed = 17;
  plan.crash(4, 2, 40);  // cut vertex of the even-id path
  const auto [base, base_cap] = run_captured<protocols::DistributedWcdsRun>(
      false, g, sim::DelayModel::unit(), &plan, 1);
  const auto [sharded, cap] = run_captured<protocols::DistributedWcdsRun>(
      false, g, sim::DelayModel::unit(), &plan, 2);
  expect_same_wcds(base, sharded);
  expect_same_trace(base_cap.trace, cap.trace);
  expect_same_metrics(base_cap.metrics, cap.metrics);
  EXPECT_TRUE(base.stats.quiescent);
  // The MIS rule's fixpoint is timing-independent, so the blackout run must
  // land on the fault-free MIS.  (Whole-graph audit_result does not apply to
  // disconnected inputs; the driver's per-component audit already ran.)
  const auto clean = protocols::run_algorithm2(g);
  EXPECT_EQ(base.wcds.mis_dominators, clean.wcds.mis_dominators);
}

// --- sim-level pieces ------------------------------------------------------

class QuietNode final : public sim::ProtocolNode {
 public:
  void on_start(sim::Context&) override {}
  void on_receive(sim::Context&, const sim::Message&) override {}
};

// Never quiesces: every delivery triggers another broadcast.
class ChatterNode final : public sim::ProtocolNode {
 public:
  void on_start(sim::Context& ctx) override { ctx.broadcast(1); }
  void on_receive(sim::Context& ctx, const sim::Message&) override {
    ctx.broadcast(1);
  }
};

// A budget trip in one shard folds into the merged stats (quiescent is an
// AND) without disturbing the other shards' accounting.
TEST(Sharding, BudgetTripInOneShardFoldsIntoMerge) {
  const auto g = graph::from_edges(4, {{0, 1}, {2, 3}});
  const auto plan = sim::ShardPlan::build(g);
  ASSERT_EQ(plan.shard_count(), 2u);
  const sim::Runtime::NodeFactory factory =
      [](NodeId u) -> std::unique_ptr<sim::ProtocolNode> {
    if (u < 2) return std::make_unique<ChatterNode>();
    return std::make_unique<QuietNode>();
  };
  std::vector<sim::ShardOutcome> outcomes(2);
  for (std::size_t c = 0; c < 2; ++c) {
    outcomes[c] = sim::run_shard(g, plan.shard(c), factory,
                                 sim::DelayModel::unit(), nullptr,
                                 /*record=*/true, /*capture_trace=*/true,
                                 /*max_events=*/50);
  }
  EXPECT_FALSE(outcomes[0].stats.quiescent);  // chatter tripped the budget
  EXPECT_TRUE(outcomes[1].stats.quiescent);   // quiet shard finished clean
  EXPECT_EQ(outcomes[1].stats.transmissions, 0u);

  obs::Recorder recorder;
  obs::MemoryTraceSink sink;
  recorder.set_trace_sink(&sink);
  const sim::RunStats merged = sim::merge_shards(outcomes, &recorder);
  EXPECT_FALSE(merged.quiescent);
  EXPECT_EQ(merged.transmissions,
            outcomes[0].stats.transmissions + outcomes[1].stats.transmissions);
  EXPECT_EQ(merged.completion_time, outcomes[0].stats.completion_time);
  EXPECT_EQ(sink.events().size(), outcomes[0].trace.size());
  const auto snap = recorder.snapshot();
  EXPECT_EQ(snap.gauges.at("sim/shards"), 2.0);
  EXPECT_EQ(snap.gauges.at("sim/quiescent"), 0.0);
  EXPECT_EQ(snap.histograms.at("phase_ms/sim/shard_run").count, 2u);
}

// Oracle: under unit delays with no faults, delivery times are RNG-free, so
// a single interleaved Runtime over the whole disconnected graph is a valid
// cross-check — its trace restricted to one component must equal that
// component's isolated sub-run on (kind, time, src, dst, type).  (Queue
// depths differ by construction: the global queue counts every component.)
TEST(Sharding, MatchesInterleavedGlobalOracle) {
  const auto inst = multi_component_udg(3, 20, 7.0, 5);
  const sim::Runtime::NodeFactory factory =
      [](NodeId) -> std::unique_ptr<sim::ProtocolNode> {
    return std::make_unique<protocols::Algorithm2Node>();
  };
  obs::Recorder recorder;
  obs::MemoryTraceSink sink;
  recorder.set_trace_sink(&sink);
  sim::Runtime oracle(inst.g, factory, sim::DelayModel::unit(), &recorder);
  const auto oracle_stats = oracle.run();
  ASSERT_TRUE(oracle_stats.quiescent);

  const auto plan = sim::ShardPlan::build(inst.g);
  ASSERT_EQ(plan.shard_count(), 3u);
  for (std::size_t c = 0; c < plan.shard_count(); ++c) {
    SCOPED_TRACE(::testing::Message() << "component " << c);
    const auto outcome = sim::run_shard(
        inst.g, plan.shard(c), factory, sim::DelayModel::unit(), nullptr,
        /*record=*/true, /*capture_trace=*/true);
    std::vector<obs::TraceEvent> restricted;
    for (const auto& e : sink.events()) {
      if (plan.labels()[e.src] == c) restricted.push_back(e);
    }
    ASSERT_EQ(restricted.size(), outcome.trace.size());
    for (std::size_t i = 0; i < restricted.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "event " << i);
      EXPECT_EQ(restricted[i].kind, outcome.trace[i].kind);
      EXPECT_EQ(restricted[i].time, outcome.trace[i].time);
      EXPECT_EQ(restricted[i].src, outcome.trace[i].src);
      EXPECT_EQ(restricted[i].dst, outcome.trace[i].dst);
      EXPECT_EQ(restricted[i].message_type, outcome.trace[i].message_type);
    }
  }
}

// run_algorithm2 hands back every node's 3HopDomList in a flat table: each
// shard's lists are gathered by member, so they must equal the lists the
// nodes of one interleaved Runtime hold (unit delays, no faults: each
// component runs exactly as in isolation).  A connected deployment, one
// shard, is checked the same way.
TEST(Sharding, Algorithm2ThreeHopListsMatchTheNodes) {
  const sim::Runtime::NodeFactory factory =
      [](NodeId) -> std::unique_ptr<sim::ProtocolNode> {
    return std::make_unique<protocols::Algorithm2Node>();
  };
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const testing::Instance instances[] = {
        multi_component_udg(3, 60, 9.0, seed),
        testing::connected_udg(150, 9.0, seed)};
    for (const testing::Instance& inst : instances) {
      const auto run = protocols::run_algorithm2(
          inst.g, sim::DelayModel::unit(), nullptr, nullptr, 2);
      sim::Runtime oracle(inst.g, factory);
      ASSERT_TRUE(oracle.run().quiescent);
      ASSERT_EQ(run.three_hop.row_count(), inst.g.node_count());
      std::size_t entries = 0;
      for (NodeId u = 0; u < inst.g.node_count(); ++u) {
        const auto& node =
            static_cast<const protocols::Algorithm2Node&>(oracle.node(u));
        EXPECT_EQ(testing::to_vector(run.three_hop[u]), node.three_hop_doms())
            << "node " << u;
        entries += node.three_hop_doms().size();
      }
      EXPECT_EQ(run.three_hop.entry_count(), entries);
      EXPECT_GT(entries, 0u);
    }
  }
}

TEST(Sharding, ShardPlanGroupsInterleavedComponents) {
  const auto g = graph::from_edges(6, {{0, 2}, {2, 4}, {1, 3}, {3, 5}});
  const auto plan = sim::ShardPlan::build(g);
  ASSERT_EQ(plan.shard_count(), 2u);
  EXPECT_EQ(std::vector<NodeId>(plan.shard(0).begin(), plan.shard(0).end()),
            (std::vector<NodeId>{0, 2, 4}));
  EXPECT_EQ(std::vector<NodeId>(plan.shard(1).begin(), plan.shard(1).end()),
            (std::vector<NodeId>{1, 3, 5}));
  EXPECT_EQ(plan.labels(),
            (std::vector<std::uint32_t>{0, 1, 0, 1, 0, 1}));
  EXPECT_THROW(sim::ShardPlan::build(graph::GraphBuilder(0).build()),
               std::invalid_argument);
}

TEST(Sharding, ShardStreamSeedIsPureAndDistinct) {
  EXPECT_EQ(sim::shard_stream_seed(42, 0), sim::shard_stream_seed(42, 0));
  EXPECT_NE(sim::shard_stream_seed(42, 0), sim::shard_stream_seed(42, 1));
  EXPECT_NE(sim::shard_stream_seed(42, 0), sim::shard_stream_seed(43, 0));
  // Seed 0 (the default plan/delay seed) must still split into distinct
  // per-shard streams.
  EXPECT_NE(sim::shard_stream_seed(0, 0), sim::shard_stream_seed(0, 1));
}

TEST(Sharding, PoolForCachesPerThreadCount) {
  parallel::ThreadPool& a = parallel::pool_for(3);
  parallel::ThreadPool& b = parallel::pool_for(3);
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &parallel::pool_for(2));
}

}  // namespace
}  // namespace wcds
