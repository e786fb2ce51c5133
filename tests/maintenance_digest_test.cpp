// Pinned digests of what maintenance::DynamicWcds maintains under churn.
//
// The differential test compares DynamicWcds event by event against the
// rebuild-everything reference, which is O(n) per event, so it can afford
// only short scripts.  Here long event sequences run on DynamicWcds alone
// and are hashed into two digests per cell:
//  * the report stream and MIS: every RepairReport field the reference
//    also reports (demoted, promoted, bridges_changed, region_size) after
//    each event, and the MIS mask every 50 events and at the end;
//  * the bridge state: the full bridges() map and the
//    is_additional_dominator flags every 50 events and at the end.
// The MIS and the report stream do not depend on which via a bridge takes,
// so a change of the via rule re-pins only the bridge-state digests.  Each
// cell then audits the final state.  Per-event audits are off, as in the
// differential test's large scripts.
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

void add_mis(Digest& d, const DynamicWcds& net) {
  for (NodeId u = 0; u < net.node_count(); ++u) {
    d.add(net.is_mis_dominator(u) ? 1U : 0U);
  }
}

void add_bridges(Digest& d, const DynamicWcds& net) {
  for (NodeId u = 0; u < net.node_count(); ++u) {
    d.add(net.is_additional_dominator(u) ? 1U : 0U);
  }
  const auto bridges = net.bridges();
  d.add(bridges.size());
  for (const auto& [pair, via] : bridges) {
    d.add(pair.first);
    d.add(pair.second);
    d.add(via);
  }
}

struct CellDigests {
  std::uint64_t reports;  // report stream and MIS
  std::uint64_t bridges;  // bridge state
};

// Applies one event, hashes its report and, every kSnapshotEvery events,
// the maintained state.
class EventDigest {
 public:
  explicit EventDigest(const DynamicWcds& net) : net_(net) { snapshot(); }

  void event(const RepairReport& report) {
    add_report(reports_, report);
    if (++events_ % kSnapshotEvery == 0) snapshot();
  }

  CellDigests finish() {
    snapshot();
    EXPECT_TRUE(net_.audit().ok());
    return {reports_.value(), bridges_.value()};
  }

 private:
  void snapshot() {
    add_mis(reports_, net_);
    add_bridges(bridges_, net_);
  }

  const DynamicWcds& net_;
  Digest reports_;
  Digest bridges_;
  int events_ = 0;
};

CellDigests churn_cell(std::uint32_t n, double degree, double radius,
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
CellDigests storm_cell() {
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

// Report-stream and MIS digests; they do not depend on the via rule.
const Cells& pinned_reports() {
  static const Cells cells = {
      {"churn/n1024/d12/r0.5", 0x184b158645b8cc16ULL},
      {"churn/n1024/d12/r3.0", 0xdec00aab3841dd3eULL},
      {"churn/n1024/d16/r0.5", 0x9c9d2e26a0431a07ULL},
      {"churn/n1024/d16/r3.0", 0xb9b1f94632ec3c15ULL},
      {"churn/n1024/d30/r0.5", 0xbeb9fbe047bd35c7ULL},
      {"churn/n1024/d30/r3.0", 0x6f684be06a1dfcfcULL},
      {"churn/n1024/d8/r0.5", 0xe75c6322c05274fcULL},
      {"churn/n1024/d8/r3.0", 0x1c9febff9659f37bULL},
      {"churn/n4096/d12/r0.5", 0x2479db0a685c5782ULL},
      {"churn/n4096/d12/r3.0", 0xcb46cc597c534715ULL},
      {"churn/n4096/d16/r0.5", 0xe04b39592c41c197ULL},
      {"churn/n4096/d16/r3.0", 0x57a8c60b4cfe4ccaULL},
      {"churn/n4096/d30/r0.5", 0x912b35f036d9f3d3ULL},
      {"churn/n4096/d30/r3.0", 0x781344dc397361c3ULL},
      {"churn/n4096/d8/r0.5", 0xc23ade337195795aULL},
      {"churn/n4096/d8/r3.0", 0x28e715c90afdfd45ULL},
      {"storm/n1024/d12", 0xe44f3ffd9745afbdULL},
  };
  return cells;
}

// Bridge-state digests, with every via the smallest neighbor of its
// bridge's lower endpoint on a 3-hop path.
const Cells& pinned_bridges() {
  static const Cells cells = {
      {"churn/n1024/d12/r0.5", 0x42e607d86355651ULL},
      {"churn/n1024/d12/r3.0", 0x459721ce6ec00ccbULL},
      {"churn/n1024/d16/r0.5", 0x9f061ba90d3e8846ULL},
      {"churn/n1024/d16/r3.0", 0x84bc89dd59c46545ULL},
      {"churn/n1024/d30/r0.5", 0x98e6ec8d99065b35ULL},
      {"churn/n1024/d30/r3.0", 0xcd3907153f68ec58ULL},
      {"churn/n1024/d8/r0.5", 0x7b8ef1bd8bd316ccULL},
      {"churn/n1024/d8/r3.0", 0x972327baaaa47be8ULL},
      {"churn/n4096/d12/r0.5", 0xbbec4eee8546b3d1ULL},
      {"churn/n4096/d12/r3.0", 0x544cb5e8761ed84bULL},
      {"churn/n4096/d16/r0.5", 0xe822b928933d421ULL},
      {"churn/n4096/d16/r3.0", 0x44a7cce995c3f353ULL},
      {"churn/n4096/d30/r0.5", 0xf70c261fafba3315ULL},
      {"churn/n4096/d30/r3.0", 0xfdaf7398168469cULL},
      {"churn/n4096/d8/r0.5", 0xa23afa0df71317c3ULL},
      {"churn/n4096/d8/r3.0", 0x49d938ebd11b7a99ULL},
      {"storm/n1024/d12", 0x4a7b5559363fba43ULL},
  };
  return cells;
}

TEST(MaintenanceDigest, ChurnMatchesPinnedDigests) {
  const AuditsOff audits_off;
  Cells reports;
  Cells bridges;
  const auto put = [&](const std::string& name, const CellDigests& cell) {
    reports[name] = cell.reports;
    bridges[name] = cell.bridges;
  };
  for (const std::uint32_t n : {1024U, 4096U}) {
    for (const double degree : {8.0, 12.0, 16.0, 30.0}) {
      for (const double radius : {0.5, 3.0}) {
        const std::string name = "churn/n" + std::to_string(n) + "/d" +
                                 std::to_string(static_cast<int>(degree)) +
                                 "/r" + std::to_string(radius).substr(0, 3);
        SCOPED_TRACE(name);
        put(name, churn_cell(n, degree, radius, 4000));
      }
    }
  }
  put("storm/n1024/d12", storm_cell());
  expect_pinned(reports, pinned_reports());
  expect_pinned(bridges, pinned_bridges());
}

}  // namespace
}  // namespace wcds::testing
