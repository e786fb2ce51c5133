// Pinned digests of what maintenance::DynamicWcds maintains under churn.
//
// The differential test compares DynamicWcds event by event against the
// rebuild-everything reference, which is O(n) per event, so it can afford
// only short scripts.  Here long event sequences run on DynamicWcds alone
// and are hashed: every RepairReport field the reference also reports
// (demoted, promoted, bridges_changed, region_size) after each event, and
// the MIS mask, the full bridges() map and the is_additional_dominator
// flags every 50 events and at the end.  Each cell then audits the final
// state.  Per-event audits are off, as in the differential test's large
// scripts.
//
// Cells: the benchmark churn mix (churn_mix.h) over n in {1024, 4096} x
// expected degree in {8, 12, 16, 30} x move radius in {0.5, 3.0}, plus one
// radio on/off storm.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "churn_mix.h"
#include "digest.h"
#include "geom/rng.h"
#include "maintenance/dynamic_wcds.h"

namespace wcds::testing {
namespace {

using maintenance::DynamicWcds;
using maintenance::RepairReport;

constexpr int kSnapshotEvery = 50;

void add_report(Digest& d, const RepairReport& report) {
  d.add(report.demoted);
  d.add(report.promoted);
  d.add(report.bridges_changed);
  d.add(report.region_size);
}

void add_state(Digest& d, const DynamicWcds& net) {
  for (NodeId u = 0; u < net.node_count(); ++u) {
    d.add((net.is_mis_dominator(u) ? 1U : 0U) |
          (net.is_additional_dominator(u) ? 2U : 0U));
  }
  const auto bridges = net.bridges();
  d.add(bridges.size());
  for (const auto& [pair, via] : bridges) {
    d.add(pair.first);
    d.add(pair.second);
    d.add(via);
  }
}

// Applies one event, hashes its report and, every kSnapshotEvery events,
// the maintained state.
class EventDigest {
 public:
  explicit EventDigest(const DynamicWcds& net) : net_(net) {
    add_state(digest_, net_);
  }

  void event(const RepairReport& report) {
    add_report(digest_, report);
    if (++events_ % kSnapshotEvery == 0) add_state(digest_, net_);
  }

  std::uint64_t finish() {
    add_state(digest_, net_);
    EXPECT_TRUE(net_.audit().ok());
    return digest_.value();
  }

 private:
  const DynamicWcds& net_;
  Digest digest_;
  int events_ = 0;
};

std::uint64_t churn_cell(std::uint32_t n, double degree, double radius,
                         int events) {
  const auto points = churn_deployment(n, n + 7, degree);
  DynamicWcds net(points);
  EventDigest digest(net);
  ChurnMix mix(n * 3 + 1, points, radius);
  for (int e = 0; e < events; ++e) {
    digest.event(apply(net, mix.next(net)));
  }
  return digest.finish();
}

// A third of the network switches off, then back on in a shuffled order,
// twice over.
std::uint64_t storm_cell() {
  const auto points = churn_deployment(1024, 29, 12.0);
  DynamicWcds net(points);
  EventDigest digest(net);
  geom::Xoshiro256ss rng(31);
  for (int storm = 0; storm < 2; ++storm) {
    std::vector<NodeId> victims;
    for (NodeId u = 0; u < points.size(); ++u) {
      if (rng.next_below(3) == 0) victims.push_back(u);
    }
    for (NodeId u : victims) digest.event(net.deactivate(u));
    for (std::size_t i = victims.size(); i > 1; --i) {
      std::swap(victims[i - 1], victims[rng.next_below(i)]);
    }
    for (NodeId u : victims) digest.event(net.activate(u));
  }
  return digest.finish();
}

// Digests pinned before partner-list rebridging and the allocation-free
// event path replaced the per-node balls and std::set regions.
const Cells& pinned() {
  static const Cells cells = {
      {"churn/n1024/d12/r0.5", 0x890f1e95cdf7f32eULL},
      {"churn/n1024/d12/r3.0", 0x2e62b749296d8420ULL},
      {"churn/n1024/d16/r0.5", 0xc04bf75a78945231ULL},
      {"churn/n1024/d16/r3.0", 0xc54dfa6180b41e2eULL},
      {"churn/n1024/d30/r0.5", 0xb12292b7a72180ULL},
      {"churn/n1024/d30/r3.0", 0x6a206b5217c6d304ULL},
      {"churn/n1024/d8/r0.5", 0x3d515b570898bef3ULL},
      {"churn/n1024/d8/r3.0", 0xa4161b492e795c9ULL},
      {"churn/n4096/d12/r0.5", 0xb05a6fd4dd4a96c2ULL},
      {"churn/n4096/d12/r3.0", 0x9126acc67aa946b3ULL},
      {"churn/n4096/d16/r0.5", 0x20518e17e71014adULL},
      {"churn/n4096/d16/r3.0", 0xf858bc0bf82f75cfULL},
      {"churn/n4096/d30/r0.5", 0x9d80ee73cf8805d4ULL},
      {"churn/n4096/d30/r3.0", 0x560797751467ae64ULL},
      {"churn/n4096/d8/r0.5", 0xc9794338ae9f5964ULL},
      {"churn/n4096/d8/r3.0", 0x5604151839c94f44ULL},
      {"storm/n1024/d12", 0x708caea1729e4e6bULL},
  };
  return cells;
}

TEST(MaintenanceDigest, ChurnMatchesPinnedDigests) {
  const AuditsOff audits_off;
  Cells cells;
  for (const std::uint32_t n : {1024U, 4096U}) {
    for (const double degree : {8.0, 12.0, 16.0, 30.0}) {
      for (const double radius : {0.5, 3.0}) {
        const std::string name = "churn/n" + std::to_string(n) + "/d" +
                                 std::to_string(static_cast<int>(degree)) +
                                 "/r" + std::to_string(radius).substr(0, 3);
        SCOPED_TRACE(name);
        cells[name] = churn_cell(n, degree, radius, 4000);
      }
    }
  }
  cells["storm/n1024/d12"] = storm_cell();
  expect_pinned(cells, pinned());
}

}  // namespace
}  // namespace wcds::testing
