// Pinned digests of what the Algorithm I and II protocols say and end up
// knowing.
//
// The trace digests (trace_digest_test.cpp) hash every send and delivery
// but not the payload words, and they see only the constructed WCDS, not
// the per-node protocol state behind it.  Here every node is wrapped in a
// decorator that hashes each delivered (recipient, src, type, payload
// words) in delivery order; a hardened run hashes both the physical frames
// and the logical messages the transport hands the protocol.  After
// quiescence the final per-node state is hashed too: Algorithm I's leader
// flag, level, parent and color; Algorithm II's role and its 1-, 2- and
// 3-hop dominator lists in their stored order.
//
// Cells: both algorithms x n in {64, 256, 1024} x 3 seeds x {unit,
// uniform(1,4)} delays x {raw, hardened Plan::lossy(0.2)}.  Deployments are
// uniform at expected degree 10 and need not be connected, so isolated
// nodes and multi-component runs are covered too.
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "digest.h"
#include "fault/hardened.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "geom/workload.h"
#include "graph/graph.h"
#include "protocols/algorithm1_protocol.h"
#include "protocols/algorithm2_protocol.h"
#include "sim/runtime.h"
#include "udg/udg.h"

namespace wcds {
namespace {

using testing::Cells;
using testing::Digest;
using testing::expect_pinned;

// Hashes every message delivered to the wrapped node, then forwards it.
class DigestingNode final : public sim::ProtocolNode {
 public:
  DigestingNode(std::unique_ptr<sim::ProtocolNode> inner, std::uint64_t layer,
                Digest& digest)
      : inner_(std::move(inner)), layer_(layer), digest_(digest) {}

  void on_start(sim::Context& ctx) override { inner_->on_start(ctx); }
  void on_receive(sim::Context& ctx, const sim::Message& msg) override {
    digest_.add(layer_);
    digest_.add(ctx.self());
    digest_.add(msg.src);
    digest_.add(msg.type);
    digest_.add(msg.payload.size());
    for (const std::uint32_t word : msg.payload) digest_.add(word);
    inner_->on_receive(ctx, msg);
  }
  void on_timer(sim::Context& ctx, std::uint64_t token) override {
    inner_->on_timer(ctx, token);
  }

 private:
  std::unique_ptr<sim::ProtocolNode> inner_;
  std::uint64_t layer_;
  Digest& digest_;
};

enum class Alg : std::uint8_t { kOne, kTwo };

struct Cell {
  Alg alg;
  std::uint32_t n;
  std::uint64_t seed;
  bool async;
  bool hardened;

  [[nodiscard]] std::string name() const {
    return std::string(alg == Alg::kOne ? "alg1" : "alg2") + "/n" +
           std::to_string(n) + "/s" + std::to_string(seed) +
           (async ? "/uniform" : "/unit") + (hardened ? "/lossy" : "/raw");
  }
};

void add_state(Digest& d, const protocols::Algorithm1Node& node) {
  d.add(node.is_leader() ? 1 : 0);
  d.add(node.level());
  d.add(node.parent());
  d.add(node.is_dominator() ? 1 : 0);
}

void add_state(Digest& d, const protocols::Algorithm2Node& node) {
  d.add(node.is_mis_dominator() ? 1 : 0);
  d.add(node.is_additional_dominator() ? 1 : 0);
  d.add(node.is_gray() ? 1 : 0);
  d.add_all(node.one_hop_doms());
  d.add(node.two_hop_doms().size());
  for (const core::TwoHopEntry& e : node.two_hop_doms()) {
    d.add(e.dom);
    d.add(e.via);
  }
  d.add(node.three_hop_doms().size());
  for (const core::ThreeHopEntry& e : node.three_hop_doms()) {
    d.add(e.dom);
    d.add(e.via1);
    d.add(e.via2);
  }
}

template <typename Node>
std::uint64_t run_cell(const graph::Graph& g, const Cell& cell) {
  Digest digest;
  std::vector<const Node*> nodes(g.node_count(), nullptr);
  const sim::Runtime::NodeFactory factory =
      [&](NodeId u) -> std::unique_ptr<sim::ProtocolNode> {
    auto node = std::make_unique<Node>();
    nodes[u] = node.get();
    auto logical =
        std::make_unique<DigestingNode>(std::move(node), /*layer=*/0, digest);
    if (!cell.hardened) return logical;
    return std::make_unique<DigestingNode>(
        std::make_unique<fault::HardenedNode>(std::move(logical)),
        /*layer=*/1, digest);
  };
  const sim::DelayModel delays = cell.async
                                     ? sim::DelayModel::uniform(1, 4, cell.seed)
                                     : sim::DelayModel::unit();
  const fault::Plan plan = fault::Plan::lossy(0.2, cell.seed);
  std::unique_ptr<fault::Injector> injector;
  if (cell.hardened) {
    injector = std::make_unique<fault::Injector>(plan, g.node_count());
  }
  sim::Runtime runtime(g, factory, delays, nullptr, injector.get());
  const sim::RunStats stats = runtime.run();
  EXPECT_TRUE(stats.quiescent) << cell.name();

  digest.add(stats.transmissions);
  digest.add(stats.deliveries);
  digest.add(stats.timer_fires);
  digest.add(stats.completion_time);
  digest.add(stats.per_type.size());
  for (const auto& [type, count] : stats.per_type) {
    digest.add(type);
    digest.add(count);
  }
  for (const Node* node : nodes) add_state(digest, *node);
  return digest.value();
}

// Digests pinned before the allocation-free send path and the neighbor-slot
// handler state replaced the vector payloads and sorted-vector sets.
const Cells& pinned() {
  static const Cells cells = {
      {"alg1/n1024/s1/uniform/raw", 0x7218bf4e5e2ff0b0ULL},
      {"alg1/n1024/s1/unit/raw", 0x80e026298341fe0cULL},
      {"alg1/n1024/s2/uniform/raw", 0xa0afd0c5e51736fdULL},
      {"alg1/n1024/s2/unit/raw", 0xfbf7d2a95dce8fb9ULL},
      {"alg1/n1024/s3/uniform/raw", 0x949aee1a460e6280ULL},
      {"alg1/n1024/s3/unit/raw", 0xce88bbe5a9ad0880ULL},
      {"alg1/n256/s1/uniform/raw", 0x7f027845ea26f0b4ULL},
      {"alg1/n256/s1/unit/raw", 0x862953141f5c4d0eULL},
      {"alg1/n256/s2/uniform/raw", 0x1812496c81698ffULL},
      {"alg1/n256/s2/unit/raw", 0x7fd57ccaa2b371feULL},
      {"alg1/n256/s3/uniform/raw", 0x93acae668ba48f6aULL},
      {"alg1/n256/s3/unit/raw", 0xdd94bc0c4ff4fcbcULL},
      {"alg1/n64/s1/uniform/raw", 0x83ab08fc3eefb03bULL},
      {"alg1/n64/s1/unit/raw", 0x77c0dc3e1a1e432fULL},
      {"alg1/n64/s2/uniform/raw", 0x633fcb146ac9c5faULL},
      {"alg1/n64/s2/unit/raw", 0xcc7a837224834fd1ULL},
      {"alg1/n64/s3/uniform/raw", 0xb36e1ea922a7c6b9ULL},
      {"alg1/n64/s3/unit/raw", 0x8c72be055317e9cfULL},
      {"alg1/n1024/s1/uniform/lossy", 0x3300bfbf0024addeULL},
      {"alg1/n1024/s1/unit/lossy", 0xd5cf099658c9ab49ULL},
      {"alg1/n1024/s2/uniform/lossy", 0xc33d266022a03fe6ULL},
      {"alg1/n1024/s2/unit/lossy", 0x29d497f08ad48450ULL},
      {"alg1/n1024/s3/uniform/lossy", 0xc8fecf113f2aa660ULL},
      {"alg1/n1024/s3/unit/lossy", 0x8898e389c659e71dULL},
      {"alg1/n256/s1/uniform/lossy", 0xd351383d1cffa9b9ULL},
      {"alg1/n256/s1/unit/lossy", 0xf55e72adc54215bfULL},
      {"alg1/n256/s2/uniform/lossy", 0x7aea700b3f6df24bULL},
      {"alg1/n256/s2/unit/lossy", 0xf4c1848be6c72b56ULL},
      {"alg1/n256/s3/uniform/lossy", 0xcc31ca6166e497a7ULL},
      {"alg1/n256/s3/unit/lossy", 0x9af1617f21d71580ULL},
      {"alg1/n64/s1/uniform/lossy", 0xadc9eeebaafddd87ULL},
      {"alg1/n64/s1/unit/lossy", 0xfea8aa809ff64594ULL},
      {"alg1/n64/s2/uniform/lossy", 0xe0ceda409c2fe218ULL},
      {"alg1/n64/s2/unit/lossy", 0xf279386a26963dffULL},
      {"alg1/n64/s3/uniform/lossy", 0xb6edb6396062d253ULL},
      {"alg1/n64/s3/unit/lossy", 0x7d2a2f37955df271ULL},
      {"alg2/n1024/s1/uniform/raw", 0x7191f67824c0a22eULL},
      {"alg2/n1024/s1/unit/raw", 0xb58550505f234270ULL},
      {"alg2/n1024/s2/uniform/raw", 0xf5bb39c64f21f934ULL},
      {"alg2/n1024/s2/unit/raw", 0xc67bb17240ce52cULL},
      {"alg2/n1024/s3/uniform/raw", 0xd1c9bf371cab43aeULL},
      {"alg2/n1024/s3/unit/raw", 0x5f10b773f9da460aULL},
      {"alg2/n256/s1/uniform/raw", 0x1fdb9eaeb36ad84ULL},
      {"alg2/n256/s1/unit/raw", 0xb2ac5ac8bbdd6656ULL},
      {"alg2/n256/s2/uniform/raw", 0x4ce9c8a452b6e05eULL},
      {"alg2/n256/s2/unit/raw", 0x35caf625f1bd3babULL},
      {"alg2/n256/s3/uniform/raw", 0x11b03ff134bfc87dULL},
      {"alg2/n256/s3/unit/raw", 0x1773d979822003b2ULL},
      {"alg2/n64/s1/uniform/raw", 0xa9758f9c2c75dcbcULL},
      {"alg2/n64/s1/unit/raw", 0xdf1fc6947b56896ULL},
      {"alg2/n64/s2/uniform/raw", 0xc8c71d4987d5fe63ULL},
      {"alg2/n64/s2/unit/raw", 0x280c31bdd2713d08ULL},
      {"alg2/n64/s3/uniform/raw", 0x83a500b0f92fe299ULL},
      {"alg2/n64/s3/unit/raw", 0x809b47aae3352330ULL},
      {"alg2/n1024/s1/uniform/lossy", 0xedcf3ec6aa11cc27ULL},
      {"alg2/n1024/s1/unit/lossy", 0xc0937ce249d985f8ULL},
      {"alg2/n1024/s2/uniform/lossy", 0xdbb5454e2a167e6aULL},
      {"alg2/n1024/s2/unit/lossy", 0xf78cc5931832490bULL},
      {"alg2/n1024/s3/uniform/lossy", 0x8f8ac784a9c8928cULL},
      {"alg2/n1024/s3/unit/lossy", 0x87b80476b02985fcULL},
      {"alg2/n256/s1/uniform/lossy", 0x76c7fb0eb096c3bfULL},
      {"alg2/n256/s1/unit/lossy", 0x3936bd3e2d7ed125ULL},
      {"alg2/n256/s2/uniform/lossy", 0x916133bf84d3c825ULL},
      {"alg2/n256/s2/unit/lossy", 0xe13f14b578cda1c8ULL},
      {"alg2/n256/s3/uniform/lossy", 0xa40b46556bbb665dULL},
      {"alg2/n256/s3/unit/lossy", 0xaddb3a9ded8f26aULL},
      {"alg2/n64/s1/uniform/lossy", 0xb79f17fbac2f504ULL},
      {"alg2/n64/s1/unit/lossy", 0xb10e841845a3f062ULL},
      {"alg2/n64/s2/uniform/lossy", 0xf2c6e1be9b40b216ULL},
      {"alg2/n64/s2/unit/lossy", 0x91655425fc68dabaULL},
      {"alg2/n64/s3/uniform/lossy", 0xb4cb4db26e89ab40ULL},
      {"alg2/n64/s3/unit/lossy", 0x7a457d59ed616afbULL},
  };
  return cells;
}

// One (algorithm, radio, n) slice of the matrix: 3 seeds x 2 delay models.
void check_slice(Alg alg, bool hardened, std::uint32_t n) {
  Cells computed;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto points = geom::uniform_square(
        n, geom::side_for_expected_degree(n, 10.0), 100 * n + seed);
    const graph::Graph g = udg::build_udg(points);
    for (const bool async : {false, true}) {
      const Cell cell{alg, n, seed, async, hardened};
      computed[cell.name()] =
          alg == Alg::kOne ? run_cell<protocols::Algorithm1Node>(g, cell)
                           : run_cell<protocols::Algorithm2Node>(g, cell);
    }
  }
  const std::string prefix = Cell{alg, n, 0, false, hardened}.name();
  const std::string head = prefix.substr(0, prefix.find("/s"));
  const std::string tail = hardened ? "/lossy" : "/raw";
  Cells expected;
  for (const auto& [name, digest] : pinned()) {
    if (name.starts_with(head + "/") && name.ends_with(tail)) {
      expected[name] = digest;
    }
  }
  expect_pinned(computed, expected);
}

class ProtocolStateDigest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ProtocolStateDigest, Algorithm1Raw) {
  check_slice(Alg::kOne, /*hardened=*/false, GetParam());
}

TEST_P(ProtocolStateDigest, Algorithm1Hardened) {
  check_slice(Alg::kOne, /*hardened=*/true, GetParam());
}

TEST_P(ProtocolStateDigest, Algorithm2Raw) {
  check_slice(Alg::kTwo, /*hardened=*/false, GetParam());
}

TEST_P(ProtocolStateDigest, Algorithm2Hardened) {
  check_slice(Alg::kTwo, /*hardened=*/true, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sizes, ProtocolStateDigest,
                         ::testing::Values(64U, 256U, 1024U));

}  // namespace
}  // namespace wcds
