// Algorithm I with the election echo carried by the CANDIDATE broadcasts
// against the RESP oracle (algorithm1_reference.h) it replaced.
//
// Under unit delays the two must agree node for node: the same leaders,
// the same parent and level per node and the same dominators, with equal
// CANDIDATE, LEVEL, COMPLETE-B, BLACK and GRAY counts and no RESP sent.
// The cells cover the five workload families, three seeds and degrees 8
// and 16, plus a disconnected fleet run through the component-sharded
// driver.  Under uniform random delays and hardened lossy or duplicating
// radios the per-copy delay draws shift with the message mix, so the trees
// may differ from the oracle's; there every component must still elect
// exactly its minimum as the one leader, every level must be its parent's
// plus one, and the level-ranked audit must pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "algorithm1_reference.h"
#include "check/audit.h"
#include "fault/hardened.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "geom/workload.h"
#include "graph/bfs.h"
#include "graph/graph.h"
#include "protocols/algorithm1_protocol.h"
#include "sim/runtime.h"
#include "sim/shard_plan.h"
#include "test_util.h"
#include "udg/udg.h"
#include "wcds/wcds_result.h"

namespace wcds::protocols {
namespace {

using geom::WorkloadKind;
using testing::reference::RespAlgorithm1Node;

// Tallies the logical message types delivered to the wrapped node, so a
// hardened run (whose radio only carries DATA and ACK frames) can still be
// checked for RESP.
class TypeCountingNode final : public sim::ProtocolNode {
 public:
  TypeCountingNode(std::unique_ptr<sim::ProtocolNode> inner,
                   std::map<sim::MessageType, std::uint64_t>& received)
      : inner_(std::move(inner)), received_(received) {}

  void on_start(sim::Context& ctx) override { inner_->on_start(ctx); }
  void on_receive(sim::Context& ctx, const sim::Message& msg) override {
    ++received_[msg.type];
    inner_->on_receive(ctx, msg);
  }
  void on_timer(sim::Context& ctx, std::uint64_t token) override {
    inner_->on_timer(ctx, token);
  }

 private:
  std::unique_ptr<sim::ProtocolNode> inner_;
  std::map<sim::MessageType, std::uint64_t>& received_;
};

// Final per-node state of one raw runtime run.
struct NodeStates {
  std::vector<NodeId> leaders;  // ascending
  std::vector<NodeId> parent;
  std::vector<std::uint32_t> level;
  core::WcdsResult wcds;
  sim::RunStats stats;
  std::map<sim::MessageType, std::uint64_t> received;  // logical deliveries
};

// Runs `Node` on every node of g; a non-null `plan` wraps each node in the
// hardened transport over a fault injector.
template <typename Node>
NodeStates run_nodes(const graph::Graph& g, const sim::DelayModel& delays,
                     const fault::Plan* plan) {
  const std::size_t n = g.node_count();
  NodeStates out;
  std::vector<const Node*> nodes(n, nullptr);
  const sim::Runtime::NodeFactory factory =
      [&](NodeId u) -> std::unique_ptr<sim::ProtocolNode> {
    auto node = std::make_unique<Node>();
    nodes[u] = node.get();
    auto counted =
        std::make_unique<TypeCountingNode>(std::move(node), out.received);
    if (plan == nullptr) return counted;
    return std::make_unique<fault::HardenedNode>(std::move(counted));
  };
  std::unique_ptr<fault::Injector> injector;
  if (plan != nullptr) injector = std::make_unique<fault::Injector>(*plan, n);
  sim::Runtime runtime(g, factory, delays, nullptr, injector.get());
  out.stats = runtime.run();
  out.parent.resize(n);
  out.level.resize(n);
  out.wcds.mask.assign(n, false);
  for (NodeId u = 0; u < n; ++u) {
    const Node& node = *nodes[u];
    if (node.is_leader()) out.leaders.push_back(u);
    out.parent[u] = node.parent();
    out.level[u] = node.level();
    if (node.is_dominator()) {
      out.wcds.mask[u] = true;
      out.wcds.dominators.push_back(u);
    }
  }
  out.wcds.mis_dominators = out.wcds.dominators;
  return out;
}

std::uint64_t count_of(const std::map<sim::MessageType, std::uint64_t>& counts,
                       sim::MessageType type) {
  const auto it = counts.find(type);
  return it == counts.end() ? 0 : it->second;
}

// `clusters` separated connected UDGs with node ids interleaved round-robin,
// plus two isolated nodes, so the driver takes its sharded path.
graph::Graph fleet(std::size_t clusters, std::uint32_t per, double degree,
                   std::uint64_t seed) {
  std::vector<std::vector<geom::Point>> parts(clusters);
  for (std::size_t i = 0; i < clusters; ++i) {
    auto inst = testing::connected_udg(per, degree, seed + 101 * i);
    for (auto& p : inst.points) p.x += 1000.0 * static_cast<double>(i);
    parts[i] = std::move(inst.points);
  }
  std::vector<geom::Point> points;
  for (std::uint32_t j = 0; j < per; ++j) {
    for (std::size_t i = 0; i < clusters; ++i) points.push_back(parts[i][j]);
  }
  points.push_back({-500.0, -500.0});
  points.push_back({-900.0, 900.0});
  return udg::build_udg(points);
}

// Node for node agreement of a run with the oracle's unit-delay run.
void expect_matches_oracle(const NodeStates& run, const NodeStates& oracle) {
  EXPECT_TRUE(run.stats.quiescent);
  EXPECT_EQ(run.leaders, oracle.leaders);
  EXPECT_EQ(run.parent, oracle.parent);
  EXPECT_EQ(run.level, oracle.level);
  EXPECT_EQ(run.wcds.dominators, oracle.wcds.dominators);
  for (const sim::MessageType type :
       {kMsgCandidate, kMsgLevel, kMsgCompleteB, kMsgBlack, kMsgGrayI}) {
    EXPECT_EQ(count_of(run.stats.per_type, type),
              count_of(oracle.stats.per_type, type))
        << algorithm1_message_name(type);
  }
  EXPECT_GT(count_of(oracle.stats.per_type, testing::reference::kMsgResp),
            0u);
  EXPECT_EQ(count_of(run.stats.per_type, testing::reference::kMsgResp), 0u);
}

// One leader per component, and it is the component's minimum id; every
// other node's parent is a neighbor one level up; the dominators pass the
// level-ranked audit; no RESP was delivered.
void expect_sound(const graph::Graph& g, const NodeStates& run) {
  EXPECT_TRUE(run.stats.quiescent);
  const sim::ShardPlan plan = sim::ShardPlan::build(g);
  std::vector<NodeId> minima;
  for (std::size_t c = 0; c < plan.shard_count(); ++c) {
    minima.push_back(plan.shard(c).front());
  }
  std::sort(minima.begin(), minima.end());
  EXPECT_EQ(run.leaders, minima);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    if (std::binary_search(minima.begin(), minima.end(), u)) {
      EXPECT_EQ(run.level[u], 0u) << "leader " << u;
      continue;
    }
    const NodeId p = run.parent[u];
    ASSERT_TRUE(p != kInvalidNode && g.has_edge(u, p)) << "node " << u;
    EXPECT_EQ(run.level[u], run.level[p] + 1) << "node " << u;
  }
  check::AuditOptions options;
  options.unit_disk = true;
  options.level_ranked = true;
  EXPECT_NO_THROW(check::audit_invariants(g, run.wcds, options));
  EXPECT_EQ(count_of(run.received, testing::reference::kMsgResp), 0u);
  EXPECT_GT(count_of(run.received, kMsgCandidate), 0u);
}

class Algorithm1Differential
    : public ::testing::TestWithParam<
          std::tuple<WorkloadKind, std::uint64_t, double>> {};

TEST_P(Algorithm1Differential, UnitDelaysMatchOracle) {
  const auto [kind, seed, degree] = GetParam();
  const graph::Graph g = testing::connected_workload(kind, 300, degree, seed);
  const auto oracle =
      run_nodes<RespAlgorithm1Node>(g, sim::DelayModel::unit(), nullptr);
  ASSERT_EQ(oracle.leaders.size(), 1u);
  const auto run =
      run_nodes<Algorithm1Node>(g, sim::DelayModel::unit(), nullptr);
  expect_matches_oracle(run, oracle);

  // The driver lands on the same leader, levels and backbone.
  const auto driven = run_algorithm1(g);
  EXPECT_EQ(driven.leaders, oracle.leaders);
  EXPECT_EQ(driven.levels, oracle.level);
  EXPECT_EQ(driven.wcds.dominators, oracle.wcds.dominators);
  EXPECT_EQ(driven.stats, run.stats);
}

std::string cell_name(
    const ::testing::TestParamInfo<Algorithm1Differential::ParamType>& info) {
  const auto [kind, seed, degree] = info.param;
  std::string name = geom::to_string(kind);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name + "_seed" + std::to_string(seed) + "_deg" +
         std::to_string(static_cast<int>(degree));
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, Algorithm1Differential,
    ::testing::Combine(::testing::Values(WorkloadKind::kUniform,
                                         WorkloadKind::kClustered,
                                         WorkloadKind::kPerturbedGrid,
                                         WorkloadKind::kCorridor,
                                         WorkloadKind::kRing),
                       ::testing::Values(1u, 2u, 3u),
                       ::testing::Values(8.0, 16.0)),
    cell_name);

// A disconnected fleet: the oracle runs the whole graph in one runtime; the
// driver runs one sub-run per component on the thread pool.
TEST(Algorithm1DifferentialSharded, FleetMatchesOracle) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    const graph::Graph g = fleet(4, 40, 10.0, seed);
    const auto oracle =
        run_nodes<RespAlgorithm1Node>(g, sim::DelayModel::unit(), nullptr);
    const auto run =
        run_nodes<Algorithm1Node>(g, sim::DelayModel::unit(), nullptr);
    expect_matches_oracle(run, oracle);

    const auto driven =
        run_algorithm1(g, sim::DelayModel::unit(), nullptr, nullptr, 2);
    const sim::ShardPlan plan = sim::ShardPlan::build(g);
    ASSERT_EQ(driven.leaders.size(), plan.shard_count());
    std::vector<NodeId> leaders = driven.leaders;
    std::sort(leaders.begin(), leaders.end());
    EXPECT_EQ(leaders, oracle.leaders);
    EXPECT_EQ(driven.levels, oracle.level);
    EXPECT_EQ(driven.wcds.dominators, oracle.wcds.dominators);
    EXPECT_EQ(count_of(driven.stats.per_type, testing::reference::kMsgResp),
              0u);
  }
}

// Asynchronous and faulty radios: trees may differ from the oracle's, the
// election and the backbone must still be sound.
TEST(Algorithm1DifferentialAsync, UniformDelaysAndHardenedRadiosStaySound) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    const auto connected = testing::connected_udg(150, 10.0, seed);
    const graph::Graph split = fleet(3, 30, 9.0, seed);
    fault::Plan duplicating;
    duplicating.duplicate = 0.3;
    duplicating.seed = seed;
    const fault::Plan lossy = fault::Plan::lossy(0.2, seed);
    for (const graph::Graph* g : {&connected.g, &split}) {
      const auto uniform = sim::DelayModel::uniform(1, 5, seed);
      expect_sound(*g, run_nodes<Algorithm1Node>(*g, uniform, nullptr));
      expect_sound(*g, run_nodes<Algorithm1Node>(*g, sim::DelayModel::unit(),
                                                 &lossy));
      expect_sound(*g, run_nodes<Algorithm1Node>(*g, sim::DelayModel::unit(),
                                                 &duplicating));
      expect_sound(*g, run_nodes<Algorithm1Node>(*g, uniform, &lossy));
    }
  }
}

}  // namespace
}  // namespace wcds::protocols
