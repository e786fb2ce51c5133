// Fault-injection layer: deterministic fault plans, the hardened reliable
// transport, and protocol convergence under loss / duplication / jitter /
// crash-recover schedules (docs/ROBUSTNESS.md).
//
// The two load-bearing guarantees pinned down here:
//  1. Transparency — a null fault plan leaves the runtime byte-identical to
//     the pre-fault-layer behavior (same traces, same stats, no added
//     allocations), and a *trivial* plan behaves exactly like a null hook
//     even though every copy consults the injector.
//  2. Convergence — under the issue's acceptance fault regime
//     (drop=0.2, dup=0.05, crash/recover events) both distributed
//     algorithms still reach quiescence with an audit-clean WCDS, across
//     seeds.
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_support/alloc_counter.h"
#include "check/audit.h"
#include "facade/build.h"
#include "fault/hardened.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "maintenance/crash_schedule.h"
#include "geom/rng.h"
#include "geom/workload.h"
#include "graph/graph.h"
#include "maintenance/dynamic_wcds.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "protocols/algorithm1_protocol.h"
#include "protocols/algorithm2_protocol.h"
#include "sim/runtime.h"
#include "test_util.h"

namespace {

using namespace wcds;

sim::Runtime::NodeFactory raw_factory(bool alg1) {
  if (alg1) {
    return [](NodeId) { return std::make_unique<protocols::Algorithm1Node>(); };
  }
  return [](NodeId) { return std::make_unique<protocols::Algorithm2Node>(); };
}

struct TracedRun {
  sim::RunStats stats;
  std::vector<obs::TraceEvent> events;
};

// Raw runtime run (no driver, no hardened wrapper) with an optional hook.
TracedRun traced_raw_run(const graph::Graph& g, bool alg1,
                         const sim::DelayModel& delays,
                         sim::FaultHook* hook) {
  obs::Recorder recorder;
  obs::MemoryTraceSink sink;
  recorder.set_trace_sink(&sink);
  sim::Runtime rt(g, raw_factory(alg1), delays, &recorder, hook);
  TracedRun out;
  out.stats = rt.run();
  out.events = sink.events();
  return out;
}

void expect_same_trace(const TracedRun& a, const TracedRun& b) {
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    ASSERT_EQ(a.events[i].kind, b.events[i].kind) << "event " << i;
    ASSERT_EQ(a.events[i].time, b.events[i].time) << "event " << i;
    ASSERT_EQ(a.events[i].src, b.events[i].src) << "event " << i;
    ASSERT_EQ(a.events[i].dst, b.events[i].dst) << "event " << i;
    ASSERT_EQ(a.events[i].message_type, b.events[i].message_type)
        << "event " << i;
    ASSERT_EQ(a.events[i].queue_depth, b.events[i].queue_depth)
        << "event " << i;
  }
  EXPECT_EQ(a.stats, b.stats);
}

void expect_audit_clean(const graph::Graph& g, const core::WcdsResult& result) {
  check::AuditOptions options;
  options.unit_disk = true;  // all fault-suite instances are UDGs
  EXPECT_NO_THROW(check::audit_invariants(g, result, options));
}

// --- Plan semantics ---------------------------------------------------------

TEST(FaultPlan, TrivialityAndBuilders) {
  fault::Plan plan;
  EXPECT_TRUE(plan.trivial());
  EXPECT_FALSE(fault::Plan::lossy(0.1, 7).trivial());
  EXPECT_FALSE(fault::Plan::chaos(0.0, 0.0, 3, 7).trivial());
  plan.crash(4, 10, 20);
  EXPECT_FALSE(plan.trivial());
  EXPECT_EQ(plan.crashes.size(), 1u);
}

TEST(FaultPlan, BlackoutRegionCoversTheDisk) {
  const auto inst = wcds::testing::connected_udg(60, 8.0, 5);
  fault::Plan plan;
  const geom::Point center = inst.points[0];
  const std::size_t covered =
      plan.blackout_region(inst.points, center, 1.0, 5, 25);
  EXPECT_GE(covered, 1u);  // at least node 0 itself
  EXPECT_EQ(plan.crashes.size(), covered);
  fault::Injector injector(plan, inst.g.node_count());
  EXPECT_TRUE(injector.down(0, 5));
  EXPECT_TRUE(injector.down(0, 24));
  EXPECT_FALSE(injector.down(0, 25));
  EXPECT_FALSE(injector.down(0, 4));
}

TEST(FaultInjector, DeterministicGivenSeedAndCallSequence) {
  const fault::Plan plan = fault::Plan::chaos(0.3, 0.2, 4, 42);
  fault::Injector a(plan, 16);
  fault::Injector b(plan, 16);
  for (std::size_t call = 0; call < 500; ++call) {
    EXPECT_EQ(a.drop_copy(call % 7), b.drop_copy(call % 7));
    EXPECT_EQ(a.duplicate_copy(call % 5), b.duplicate_copy(call % 5));
    EXPECT_EQ(a.extra_delay(), b.extra_delay());
  }
  EXPECT_EQ(a.counters(), b.counters());
  EXPECT_GT(a.counters().dropped, 0u);
  EXPECT_GT(a.counters().duplicated, 0u);
}

TEST(FaultInjector, LinkOverridesShadowTheGlobalRates) {
  // Probability 1.0 is rejected (a certainly-dead link can never settle).
  fault::Plan rejected;
  rejected.link_overrides.push_back({/*link_slot=*/0, /*drop=*/1.0, 0.0});
  EXPECT_THROW(fault::Injector(rejected, 4), std::exception);

  fault::Plan plan;
  plan.seed = 9;  // fixed seed: the draw sequence below is reproducible
  plan.link_overrides.push_back({/*link_slot=*/3, /*drop=*/0.9, /*dup=*/0.0});
  fault::Injector injector(plan, 4);
  for (int i = 0; i < 64; ++i) {
    (void)injector.drop_copy(3);          // override applies its own rate
    EXPECT_FALSE(injector.drop_copy(1));  // global rate stays zero
  }
  EXPECT_GT(injector.counters().dropped, 0u);
}

// --- Transparency -----------------------------------------------------------

// A trivial-plan injector must replay the exact null-hook run: its draws
// never perturb a delivery.
TEST(FaultTransparency, TrivialPlanMatchesNullHookExactly) {
  const auto inst = wcds::testing::connected_udg(100, 8.0, 2);
  for (const bool alg1 : {true, false}) {
    for (const bool async : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "alg1=" << alg1
                                        << " async=" << async);
      const auto delays = async ? sim::DelayModel::uniform(1, 4, 11)
                                : sim::DelayModel::unit();
      const auto null_run = traced_raw_run(inst.g, alg1, delays, nullptr);
      fault::Injector trivial(fault::Plan{}, inst.g.node_count());
      const auto hooked = traced_raw_run(inst.g, alg1, delays, &trivial);
      expect_same_trace(null_run, hooked);
      EXPECT_EQ(trivial.counters(), fault::Injector::Counters{});
    }
  }
}

// The facade with faults == nullptr takes the exact pre-fault-layer path.
TEST(FaultTransparency, FacadeNullPlanMatchesDirectDriver) {
  const auto inst = wcds::testing::connected_udg(80, 8.0, 4);
  core::BuildOptions options;
  options.algorithm = core::BuildAlgorithm::kAlgorithm2Protocol;
  const auto report = core::build(inst.g, options);
  const auto direct = protocols::run_algorithm2(inst.g);
  EXPECT_EQ(report.result.dominators, direct.wcds.dominators);
  EXPECT_EQ(report.stats, direct.stats);
}

// The null-hook broadcast path must stay allocation-free per delivery (the
// fault branch may not add heap traffic when no hook is installed).
TEST(FaultTransparency, NullHookPathAddsNoAllocations) {
  constexpr std::uint32_t kLeaves = 512;
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(kLeaves);
  for (NodeId leaf = 1; leaf <= kLeaves; ++leaf) edges.push_back({0, leaf});
  const graph::Graph g = graph::from_edges(kLeaves + 1, edges);

  class OneShotNode final : public sim::ProtocolNode {
   public:
    void on_start(sim::Context& ctx) override { ctx.broadcast(1); }
    void on_receive(sim::Context&, const sim::Message&) override {}
  };

  sim::Runtime rt(
      g, [](NodeId) { return std::make_unique<OneShotNode>(); },
      sim::DelayModel::unit(), nullptr, nullptr);
  bench::AllocationCounter counter;
  const auto stats = rt.run();
  const std::uint64_t allocations = counter.stop();
  EXPECT_EQ(stats.deliveries, 2u * kLeaves);
  // Amortized container growth only — same budget the queue differential
  // suite enforced before the fault layer existed.
  EXPECT_LT(allocations, 100u);
}

// --- Idempotent handlers under raw duplication ------------------------------

// Duplication alone (no loss) must be survivable WITHOUT the hardened
// transport: the protocol handlers are duplicate-safe by themselves.  The
// MIS fixpoint is timing-independent, so even the dominator set matches the
// fault-free run.
TEST(FaultIdempotence, RawAlgorithm2SurvivesDuplication) {
  const auto inst = wcds::testing::connected_udg(90, 8.0, 6);
  const auto clean = protocols::run_algorithm2(inst.g);

  fault::Plan plan;
  plan.duplicate = 0.3;
  plan.seed = 13;
  fault::Injector injector(plan, inst.g.node_count());
  sim::Runtime rt(inst.g, raw_factory(/*alg1=*/false), sim::DelayModel::unit(),
                  nullptr, &injector);
  const auto stats = rt.run();
  EXPECT_TRUE(stats.quiescent);
  EXPECT_GT(injector.counters().duplicated, 0u);

  std::vector<NodeId> mis;
  for (NodeId u = 0; u < inst.g.node_count(); ++u) {
    const auto& node =
        static_cast<const protocols::Algorithm2Node&>(rt.node(u));
    if (node.is_mis_dominator()) mis.push_back(u);
  }
  EXPECT_EQ(mis, clean.wcds.mis_dominators);
}

// The same without the hardened transport for Algorithm I: RESP,
// COMPLETE-A and COMPLETE-B count once per neighbor slot, so replayed copies
// cannot push a wave's counters past the neighbors it waits for (which used
// to stall every wave and quiesce with no leader and an empty backbone).
// Each run elects exactly one leader and marks an audit-clean level-ranked
// MIS, the same one as the fault-free run.
TEST(FaultIdempotence, RawAlgorithm1SurvivesDuplication) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    const auto inst = wcds::testing::connected_udg(90, 8.0, seed);
    const auto clean = protocols::run_algorithm1(inst.g);

    fault::Plan plan;
    plan.duplicate = 0.3;
    plan.seed = seed;
    fault::Injector injector(plan, inst.g.node_count());
    sim::Runtime rt(inst.g, raw_factory(/*alg1=*/true),
                    sim::DelayModel::unit(), nullptr, &injector);
    const auto stats = rt.run();
    EXPECT_TRUE(stats.quiescent);
    EXPECT_GT(injector.counters().duplicated, 0u);

    std::size_t leaders = 0;
    core::WcdsResult wcds;
    wcds.mask.assign(inst.g.node_count(), false);
    wcds.color.assign(inst.g.node_count(), core::NodeColor::kGray);
    for (NodeId u = 0; u < inst.g.node_count(); ++u) {
      const auto& node =
          static_cast<const protocols::Algorithm1Node&>(rt.node(u));
      if (node.is_leader()) ++leaders;
      if (node.is_dominator()) {
        wcds.dominators.push_back(u);
        wcds.mask[u] = true;
        wcds.color[u] = core::NodeColor::kBlack;
      }
    }
    wcds.mis_dominators = wcds.dominators;
    EXPECT_EQ(leaders, 1u);
    EXPECT_EQ(wcds.dominators, clean.wcds.dominators);
    check::AuditOptions options;
    options.unit_disk = true;
    options.level_ranked = true;
    EXPECT_NO_THROW(check::audit_invariants(inst.g, wcds, options));
  }
}

// --- Convergence under the hardened transport -------------------------------

TEST(FaultConvergence, LossyRunsConvergeAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto inst = wcds::testing::connected_udg(80, 8.0, seed);
    const fault::Plan plan = fault::Plan::lossy(0.2, seed);
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);

    const auto run1 = protocols::run_algorithm1(
        inst.g, sim::DelayModel::unit(), nullptr, &plan);
    EXPECT_TRUE(run1.stats.quiescent);
    expect_audit_clean(inst.g, run1.wcds);

    const auto run2 = protocols::run_algorithm2(
        inst.g, sim::DelayModel::unit(), nullptr, &plan);
    EXPECT_TRUE(run2.stats.quiescent);
    expect_audit_clean(inst.g, run2.wcds);
  }
}

// The issue's acceptance regime: drop=0.2, dup=0.05, jitter, plus two
// crash/recover events, across 8 seeds.  Both protocols re-converge to an
// audit-clean WCDS; Algorithm II additionally reproduces the fault-free MIS
// (the fixpoint is timing-independent).
TEST(FaultConvergence, ChaosWithCrashRecoverAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto inst = wcds::testing::connected_udg(70, 8.0, seed);
    fault::Plan plan = fault::Plan::chaos(0.2, 0.05, 3, seed);
    const auto n = static_cast<NodeId>(inst.g.node_count());
    plan.crash(static_cast<NodeId>(seed % n), 5, 40);
    plan.crash(static_cast<NodeId>((3 * seed + 1) % n), 20, 70);
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);

    const auto run1 = protocols::run_algorithm1(
        inst.g, sim::DelayModel::unit(), nullptr, &plan);
    EXPECT_TRUE(run1.stats.quiescent);
    expect_audit_clean(inst.g, run1.wcds);

    const auto clean = protocols::run_algorithm2(inst.g);
    const auto run2 = protocols::run_algorithm2(
        inst.g, sim::DelayModel::unit(), nullptr, &plan);
    EXPECT_TRUE(run2.stats.quiescent);
    expect_audit_clean(inst.g, run2.wcds);
    EXPECT_EQ(run2.wcds.mis_dominators, clean.wcds.mis_dominators);
  }
}

TEST(FaultConvergence, RegionBlackoutConverges) {
  const auto inst = wcds::testing::connected_udg(100, 9.0, 3);
  fault::Plan plan = fault::Plan::lossy(0.1, 21);
  const std::size_t covered = plan.blackout_region(
      inst.points, inst.points[inst.g.node_count() / 2], 1.0, 10, 60);
  ASSERT_GE(covered, 1u);
  const auto run = protocols::run_algorithm2(
      inst.g, sim::DelayModel::unit(), nullptr, &plan);
  EXPECT_TRUE(run.stats.quiescent);
  expect_audit_clean(inst.g, run.wcds);
}

TEST(FaultConvergence, FacadeRunsFaultPlans) {
  const auto inst = wcds::testing::connected_udg(60, 8.0, 7);
  const fault::Plan plan = fault::Plan::chaos(0.15, 0.05, 2, 7);
  for (const auto algorithm : {core::BuildAlgorithm::kAlgorithm1Protocol,
                               core::BuildAlgorithm::kAlgorithm2Protocol}) {
    SCOPED_TRACE(core::to_string(algorithm));
    core::BuildOptions options;
    options.algorithm = algorithm;
    options.faults = &plan;
    const auto report = core::build(inst.g, options);
    EXPECT_TRUE(report.stats.quiescent);
    expect_audit_clean(inst.g, report.result);
  }
}

// --- Metrics ----------------------------------------------------------------

TEST(FaultMetrics, InjectorAndTransportCountersReachTheRecorder) {
  const auto inst = wcds::testing::connected_udg(60, 8.0, 9);
  const fault::Plan plan = fault::Plan::chaos(0.2, 0.05, 2, 9);
  obs::Recorder recorder;
  const auto run = protocols::run_algorithm2(
      inst.g, sim::DelayModel::unit(), &recorder, &plan);
  EXPECT_TRUE(run.stats.quiescent);
  const auto snapshot = recorder.snapshot();
  ASSERT_TRUE(snapshot.counters.contains("fault/dropped"));
  EXPECT_GT(snapshot.counters.at("fault/dropped"), 0u);
  ASSERT_TRUE(snapshot.counters.contains("fault/frames"));
  EXPECT_GT(snapshot.counters.at("fault/frames"), 0u);
  ASSERT_TRUE(snapshot.counters.contains("fault/retransmits"));
  EXPECT_GT(snapshot.counters.at("fault/retransmits"), 0u);
  ASSERT_TRUE(snapshot.counters.contains("fault/acks"));
  EXPECT_GT(snapshot.counters.at("fault/acks"), 0u);
}

// --- Crash schedules over the maintained backbone ---------------------------

TEST(FaultSchedule, CrashRecoverKeepsBackboneAuditClean) {
  maintenance::DynamicWcds dyn(geom::uniform_square(
      120, geom::side_for_expected_degree(120, 10.0), 17));
  ASSERT_TRUE(dyn.audit().ok());
  obs::Recorder recorder;
  const std::vector<NodeId> victims = {3, 40, 77, 111};
  const auto report = maintenance::run_crash_schedule(dyn, victims, &recorder);
  ASSERT_EQ(report.outcomes.size(), victims.size());
  EXPECT_TRUE(dyn.audit().ok());
  EXPECT_GE(report.total_repair_ms, 0.0);
  const auto snapshot = recorder.snapshot();
  ASSERT_TRUE(snapshot.histograms.contains("fault/repair_ms"));
  EXPECT_EQ(snapshot.histograms.at("fault/repair_ms").count,
            2 * victims.size());
  // The liveness watchdog finds nothing to do on a healthy structure.
  const auto watchdog_report = dyn.watchdog();
  EXPECT_EQ(watchdog_report.demoted, 0u);
  EXPECT_EQ(watchdog_report.promoted, 0u);
  EXPECT_EQ(watchdog_report.region_size, 0u);
}

// A bad victim anywhere in the schedule is rejected before the first crash:
// out of range (which would index past the node arrays) or already off.
TEST(CrashSchedule, RejectsOutOfRangeVictimWithoutSideEffects) {
  maintenance::DynamicWcds dyn(geom::uniform_square(
      120, geom::side_for_expected_degree(120, 10.0), 17));
  dyn.deactivate(77);
  const auto bridges = dyn.bridges();
  const auto dominators = dyn.dominators();
  obs::Recorder recorder;
  const std::vector<NodeId> out_of_range = {3, 40, 120};
  EXPECT_THROW(
      maintenance::run_crash_schedule(dyn, out_of_range, &recorder),
      std::out_of_range);
  const std::vector<NodeId> huge = {3, kInvalidNode};
  EXPECT_THROW(maintenance::run_crash_schedule(dyn, huge, &recorder),
               std::out_of_range);
  const std::vector<NodeId> inactive = {3, 77};
  EXPECT_THROW(maintenance::run_crash_schedule(dyn, inactive, &recorder),
               std::invalid_argument);
  // Nothing crashed: only node 77 is off, the backbone is unchanged and no
  // repair was timed.
  for (NodeId u = 0; u < dyn.node_count(); ++u) {
    EXPECT_EQ(dyn.is_active(u), u != 77) << u;
  }
  EXPECT_EQ(dyn.bridges(), bridges);
  EXPECT_EQ(dyn.dominators(), dominators);
  EXPECT_FALSE(recorder.snapshot().histograms.contains("fault/repair_ms"));
}

// --- Nightly soak (WCDS_SOAK=1) ---------------------------------------------

// Wide seed x loss-rate sweep for the scheduled CI job.  Skipped in the
// regular suite; under WCDS_SOAK=1 any failing combination is appended to a
// reproducer file (WCDS_SOAK_OUT, default fault_soak_failures.txt) that the
// nightly workflow uploads as an artifact.
TEST(FaultSoak, SeedSweep) {
  if (std::getenv("WCDS_SOAK") == nullptr) {
    GTEST_SKIP() << "set WCDS_SOAK=1 to run the extended fault sweep";
  }
  const char* out_env = std::getenv("WCDS_SOAK_OUT");
  const std::string out_path =
      out_env != nullptr ? out_env : "fault_soak_failures.txt";
  std::vector<std::string> failures;

  for (const double drop : {0.1, 0.2, 0.3}) {
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
      const auto inst = wcds::testing::connected_udg(70, 8.0, seed);
      fault::Plan plan = fault::Plan::chaos(drop, 0.05, 3, seed);
      const auto n = static_cast<NodeId>(inst.g.node_count());
      plan.crash(static_cast<NodeId>(seed % n), 5, 50);
      for (const bool alg1 : {true, false}) {
        const auto tag = std::string("alg") + (alg1 ? "1" : "2") +
                         " drop=" + std::to_string(drop) +
                         " seed=" + std::to_string(seed);
        try {
          const auto stats =
              alg1 ? protocols::run_algorithm1(inst.g, sim::DelayModel::unit(),
                                               nullptr, &plan)
                         .stats
                   : protocols::run_algorithm2(inst.g, sim::DelayModel::unit(),
                                               nullptr, &plan)
                         .stats;
          if (!stats.quiescent) failures.push_back(tag + " (not quiescent)");
        } catch (const std::exception& e) {
          failures.push_back(tag + " (" + e.what() + ")");
        }
      }
    }
  }

  if (!failures.empty()) {
    std::ofstream out(out_path);
    for (const auto& line : failures) out << line << "\n";
  }
  EXPECT_TRUE(failures.empty())
      << failures.size() << " failing combinations written to " << out_path;
}

// --- Scaled nightly soak (WCDS_SCALED_SOAK=1) --------------------------------

// Mobility x loss x crash matrix over a 16-cluster fleet at n >= 10^4,
// executed with the component-sharded runner — the scaled companion of
// FaultSoak.SeedSweep.  One matrix cell per job when WCDS_SCALED_SOAK_CELL
// is set (the nightly workflow fans the cells out), all cells otherwise.
// Failing combinations (with their reproducer seeds) are appended to
// WCDS_SCALED_SOAK_OUT for the artifact upload.
TEST(ScaledSoak, FleetMatrix) {
  if (std::getenv("WCDS_SCALED_SOAK") == nullptr) {
    GTEST_SKIP() << "set WCDS_SCALED_SOAK=1 to run the scaled fleet sweep";
  }
  const char* out_env = std::getenv("WCDS_SCALED_SOAK_OUT");
  const std::string out_path =
      out_env != nullptr ? out_env : "scaled_soak_failures.txt";

  struct Cell {
    double jitter;   // mobility: per-node uniform displacement before build
    double drop;     // loss rate
    NodeId crashes;  // crash/recover windows sprinkled over the fleet
  };
  std::vector<Cell> cells;
  for (const double jitter : {0.0, 0.05}) {
    for (const double drop : {0.1, 0.3}) {
      for (const NodeId crashes : {NodeId{0}, NodeId{8}}) {
        cells.push_back({jitter, drop, crashes});
      }
    }
  }
  const char* cell_env = std::getenv("WCDS_SCALED_SOAK_CELL");
  if (cell_env != nullptr) {
    const std::size_t index = std::stoul(cell_env);
    ASSERT_LT(index, cells.size()) << "WCDS_SCALED_SOAK_CELL out of range";
    cells = {cells[index]};
  }

  constexpr std::size_t kClusters = 16;
  constexpr std::uint32_t kPerCluster = 640;  // 16 x 640 = 10240 nodes
  std::vector<std::string> failures;
  for (const Cell& cell : cells) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      // The A8 fleet shape: clusters separated far beyond the unit radius,
      // node ids interleaved round-robin so components are non-contiguous
      // in id space.  Mobility is a pre-build position jitter: each node
      // drifts by up to `jitter` in x and y from its seeded deployment.
      std::vector<std::vector<geom::Point>> parts(kClusters);
      geom::Xoshiro256ss drift(0xA950AC00 + seed);
      for (std::size_t i = 0; i < kClusters; ++i) {
        auto part =
            wcds::testing::connected_udg(kPerCluster, 10.0, seed + 101 * i);
        for (auto& p : part.points) {
          p.x += 1000.0 * static_cast<double>(i) +
                 drift.next_double(-cell.jitter, cell.jitter);
          p.y += drift.next_double(-cell.jitter, cell.jitter);
        }
        parts[i] = std::move(part.points);
      }
      std::vector<geom::Point> points;
      for (std::uint32_t j = 0; j < kPerCluster; ++j) {
        for (std::size_t i = 0; i < kClusters; ++i) {
          points.push_back(parts[i][j]);
        }
      }
      const auto g = udg::build_udg(points);
      const auto n = static_cast<NodeId>(g.node_count());

      fault::Plan plan = fault::Plan::chaos(cell.drop, 0.05, 3, seed);
      for (NodeId c = 0; c < cell.crashes; ++c) {
        plan.crash(static_cast<NodeId>(((c + 1) * n) / 11 % n), 5, 50);
      }

      const auto tag = "jitter=" + std::to_string(cell.jitter) +
                       " drop=" + std::to_string(cell.drop) +
                       " crashes=" + std::to_string(cell.crashes) +
                       " seed=" + std::to_string(seed);
      for (const bool alg1 : {true, false}) {
        const auto arm = std::string("alg") + (alg1 ? "1" : "2") + " " + tag;
        try {
          const auto stats =
              alg1 ? protocols::run_algorithm1(
                         g, sim::DelayModel::unit(), nullptr, &plan,
                         sim::ExecutionPolicy::kComponentSharded)
                         .stats
                   : protocols::run_algorithm2(
                         g, sim::DelayModel::unit(), nullptr, &plan,
                         sim::ExecutionPolicy::kComponentSharded)
                         .stats;
          if (!stats.quiescent) failures.push_back(arm + " (not quiescent)");
        } catch (const std::exception& e) {
          failures.push_back(arm + " (" + e.what() + ")");
        }
      }

      // The resilient arm A9 relies on: a fault-free sharded (2,2) build
      // over the same fleet must absorb the cell's crash set with zero
      // repair.
      try {
        core::BuildOptions options;
        options.algorithm = core::BuildAlgorithm::kAlgorithm2Protocol;
        options.resilience = core::ResilienceSpec{2, 2};
        const auto report = core::build(g, options);
        std::vector<NodeId> victims;
        for (NodeId c = 0; c < std::max(cell.crashes, NodeId{4}); ++c) {
          victims.push_back(static_cast<NodeId>(((c + 1) * n) / 11 % n));
        }
        const auto survival =
            maintenance::run_survival_schedule(g, report.result, victims);
        if (!survival.all_survived()) {
          failures.push_back("resilient " + tag + " (" +
                             std::to_string(survival.failed.size()) +
                             " crashes broke the (2,2) backbone)");
        }
      } catch (const std::exception& e) {
        failures.push_back("resilient " + tag + " (" + e.what() + ")");
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

}  // namespace
