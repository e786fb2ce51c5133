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
// handler state replaced the vector payloads and sorted-vector sets.  The
// Algorithm I cells were re-pinned once since, when the election echo moved
// from RESP unicasts onto the CANDIDATE broadcasts (a protocol change: the
// messages differ; algorithm1_differential_test shows the outcome under
// unit delays does not).
const Cells& pinned() {
  static const Cells cells = {
      {"alg1/n1024/s1/uniform/raw", 0x97b9635ec644bb68ULL},
      {"alg1/n1024/s1/unit/raw", 0xd0bc181e65b99b38ULL},
      {"alg1/n1024/s2/uniform/raw", 0xa42f4fe9ea9361daULL},
      {"alg1/n1024/s2/unit/raw", 0xb0d311687b414638ULL},
      {"alg1/n1024/s3/uniform/raw", 0x20bedf38d1740a74ULL},
      {"alg1/n1024/s3/unit/raw", 0x786c1a0cedb5f932ULL},
      {"alg1/n256/s1/uniform/raw", 0xb3871fb0b943858aULL},
      {"alg1/n256/s1/unit/raw", 0xdb046e3d38bc109cULL},
      {"alg1/n256/s2/uniform/raw", 0x5bc69acce282c03bULL},
      {"alg1/n256/s2/unit/raw", 0x70e8da761a21d2beULL},
      {"alg1/n256/s3/uniform/raw", 0x34168a4f92e0d225ULL},
      {"alg1/n256/s3/unit/raw", 0x1f46071019643f30ULL},
      {"alg1/n64/s1/uniform/raw", 0x13172171fe03ff04ULL},
      {"alg1/n64/s1/unit/raw", 0xabb24f785ca1d541ULL},
      {"alg1/n64/s2/uniform/raw", 0xf2a5343d1aeaca2ULL},
      {"alg1/n64/s2/unit/raw", 0x4a627922d985d5d4ULL},
      {"alg1/n64/s3/uniform/raw", 0x78620a89ece0ad0ULL},
      {"alg1/n64/s3/unit/raw", 0x6c9d2bb5984e90b9ULL},
      {"alg1/n1024/s1/uniform/lossy", 0xd16805503e664de0ULL},
      {"alg1/n1024/s1/unit/lossy", 0xa28b30cfd6b3e272ULL},
      {"alg1/n1024/s2/uniform/lossy", 0xe5eeab22e4599638ULL},
      {"alg1/n1024/s2/unit/lossy", 0xa5ef51c3fedc0f28ULL},
      {"alg1/n1024/s3/uniform/lossy", 0x1788ebfccac56e5aULL},
      {"alg1/n1024/s3/unit/lossy", 0xa13d11662d4f7f5cULL},
      {"alg1/n256/s1/uniform/lossy", 0x8f844f01e62868dcULL},
      {"alg1/n256/s1/unit/lossy", 0x24b7ff70b8e71efaULL},
      {"alg1/n256/s2/uniform/lossy", 0xf65c018c379c2e3bULL},
      {"alg1/n256/s2/unit/lossy", 0x8ae38739f651da3eULL},
      {"alg1/n256/s3/uniform/lossy", 0x44e4565402cb36c5ULL},
      {"alg1/n256/s3/unit/lossy", 0x272a39d6fb168302ULL},
      {"alg1/n64/s1/uniform/lossy", 0x51a4aaaa94c9ce9cULL},
      {"alg1/n64/s1/unit/lossy", 0xb439c4118546b19fULL},
      {"alg1/n64/s2/uniform/lossy", 0x9d342a327302745cULL},
      {"alg1/n64/s2/unit/lossy", 0x26f1ee1b7730136dULL},
      {"alg1/n64/s3/uniform/lossy", 0xe9d2d6eb932c42c6ULL},
      {"alg1/n64/s3/unit/lossy", 0x531ec19231b0475ULL},
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
