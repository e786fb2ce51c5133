// Experiment T6 (Section 4.2 maintenance): localized WCDS repair under
// mobility — invariant preservation, repair locality, and role churn,
// versus the cost of rebuilding from scratch.
#include "bench_common.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <iostream>
#include <string>

#include "bench_support/table.h"
#include "geom/rng.h"
#include "maintenance/dynamic_wcds.h"
#include "mis/mis.h"
#include "mobility/models.h"
#include "protocols/mis_maintenance_protocol.h"
#include "udg/udg.h"

namespace {

using namespace wcds;

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

void set_gauge(const std::string& name, double value) {
  if (obs::Recorder* rec = obs::global_recorder()) {
    rec->metrics().set(name, value);
  }
}

// T6d: wall time per maintenance event as n grows at fixed density.  The
// event mix is the whole-path benchmark's churn mix: 80% moves of up to 0.5
// per axis (clamped to the deployment square), 10% radio off, 10% the most
// recent off node back on.  Each row times kBatches batches of kBatch events
// and reports the median batch's mean; the t6/event_us/<n> gauges feed the
// CI shape gate (max/min across n <= 2).
void print_event_cost_table() {
  constexpr int kWarmup = 200;
  constexpr int kBatch = 1000;
  constexpr int kBatches = 3;
  bench::banner(std::cout,
                "T6d: per-event maintenance cost vs n (expected degree 12, "
                "median of 3 x 1000 events)");
  bench::Table table({"n", "initial build ms", "us/event", "mean region",
                      "searched/event", "audit() ms"});
  for (const std::uint32_t n : {1u << 12, 1u << 14, 1u << 16}) {
    const double side = geom::side_for_expected_degree(n, 12.0);
    auto start = Clock::now();
    maintenance::DynamicWcds net(geom::uniform_square(n, side, 19));
    const double build_ms = us_since(start) / 1000.0;
    geom::Xoshiro256ss rng(n + 23);
    std::vector<NodeId> off;
    std::size_t region_total = 0;
    std::size_t searched_total = 0;
    const auto event = [&] {
      const auto kind = rng.next_below(10);
      if (kind == 9 && !off.empty()) {
        const NodeId u = off.back();
        off.pop_back();
        return net.activate(u);
      }
      const auto u = static_cast<NodeId>(rng.next_below(n));
      if (kind == 8 && net.is_active(u)) {
        off.push_back(u);
        return net.deactivate(u);
      }
      geom::Point p = net.position(u);
      p.x = std::clamp(p.x + rng.next_double(-0.5, 0.5), 0.0, side);
      p.y = std::clamp(p.y + rng.next_double(-0.5, 0.5), 0.0, side);
      return net.move_node(u, p);
    };
    for (int e = 0; e < kWarmup; ++e) (void)event();
    std::array<double, kBatches> batch_us{};
    for (double& us : batch_us) {
      start = Clock::now();
      for (int e = 0; e < kBatch; ++e) {
        const maintenance::RepairReport report = event();
        region_total += report.region_size;
        searched_total += report.searched;
      }
      us = us_since(start) / kBatch;
    }
    std::sort(batch_us.begin(), batch_us.end());
    const double event_us = batch_us[kBatches / 2];
    start = Clock::now();
    const bool audit_ok = net.audit().ok();
    const double audit_ms = us_since(start) / 1000.0;
    table.add_row({std::to_string(n), bench::fmt(build_ms, 1),
                   bench::fmt(event_us, 1),
                   bench::fmt(static_cast<double>(region_total) /
                                  (kBatch * kBatches),
                              1),
                   bench::fmt(static_cast<double>(searched_total) /
                                  (kBatch * kBatches),
                              1),
                   audit_ok ? bench::fmt(audit_ms, 1) : "VIOLATION"});
    set_gauge("t6/event_us/" + std::to_string(n), event_us);
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: us/event, mean region and searched/event "
               "flat in n (each\nevent works on the 3-hop balls around it; "
               "searched/event counts the nodes\nits bounded searches "
               "visit); initial build and audit() grow linearly.\n";
}

void print_tables() {
  bench::banner(std::cout,
                "T6: localized maintenance under mobility (60 events per row)");
  bench::Table table({"n", "move radius", "events", "violations",
                      "mean region", "region/n", "demotions", "promotions",
                      "bridge churn"});
  for (const std::uint32_t n : {200u, 500u, 1000u}) {
    for (const double radius : {0.25, 1.0}) {
      const double side = geom::side_for_expected_degree(n, 12.0);
      maintenance::DynamicWcds net(geom::uniform_square(n, side, 7));
      geom::Xoshiro256ss rng(n * 31 + 5);
      std::size_t violations = 0;
      std::size_t region_total = 0;
      std::size_t demoted = 0;
      std::size_t promoted = 0;
      std::size_t bridges = 0;
      const int kEvents = 60;
      for (int e = 0; e < kEvents; ++e) {
        const auto u = static_cast<NodeId>(rng.next_below(n));
        maintenance::RepairReport report;
        const auto kind = rng.next_below(10);
        if (kind < 8) {
          geom::Point p = net.position(u);
          p.x += rng.next_double(-radius, radius);
          p.y += rng.next_double(-radius, radius);
          report = net.move_node(u, p);
        } else if (kind == 8) {
          report = net.deactivate(u);
        } else {
          report = net.activate(u);
        }
        region_total += report.region_size;
        demoted += report.demoted;
        promoted += report.promoted;
        bridges += report.bridges_changed;
        if (!net.audit().ok()) ++violations;
      }
      const double mean_region =
          static_cast<double>(region_total) / kEvents;
      table.add_row({std::to_string(n), bench::fmt(radius, 2),
                     std::to_string(kEvents), bench::fmt_count(violations),
                     bench::fmt(mean_region, 1),
                     bench::fmt(mean_region / n, 3),
                     bench::fmt_count(demoted), bench::fmt_count(promoted),
                     bench::fmt_count(bridges)});
    }
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: zero invariant violations; the repair "
               "region is a 3-hop\nball whose absolute size is independent "
               "of n (region/n shrinks as n grows);\nsmall moves cause "
               "near-zero role churn.\n";

  bench::banner(std::cout,
                "T6b: maintenance under mobility models (n = 250, 10 steps "
                "of dt = 0.5)");
  bench::Table models({"model", "violations", "role changes", "mean region",
                       "final |U|"});
  const std::uint32_t n = 250;
  const double side = geom::side_for_expected_degree(n, 12.0);
  const mobility::ArenaBox arena{side, side};
  for (const int kind : {0, 1, 2}) {
    auto start = geom::uniform_square(n, side, 11);
    std::unique_ptr<mobility::MobilityModel> model;
    switch (kind) {
      case 0:
        model = std::make_unique<mobility::RandomWaypoint>(
            start, arena, mobility::WaypointParams{}, 21);
        break;
      case 1:
        model = std::make_unique<mobility::RandomWalk>(
            start, arena, mobility::WalkParams{}, 22);
        break;
      default: {
        mobility::GroupParams gp;
        gp.groups = 5;
        gp.member_radius = 2.0;
        model = std::make_unique<mobility::ReferencePointGroup>(start, arena,
                                                                gp, 23);
        break;
      }
    }
    maintenance::DynamicWcds net(start);
    std::size_t violations = 0;
    std::size_t roles = 0;
    std::size_t region_total = 0;
    std::size_t events = 0;
    for (int step = 0; step < 10; ++step) {
      model->step(0.5);
      const auto& pts = model->positions();
      for (NodeId u = 0; u < n; ++u) {
        if (geom::squared_distance(pts[u], net.position(u)) < 1e-6) continue;
        const auto report = net.move_node(u, pts[u]);
        roles += report.demoted + report.promoted;
        region_total += report.region_size;
        ++events;
      }
      if (!net.audit().ok()) ++violations;
    }
    const char* name = kind == 0   ? "random waypoint"
                       : kind == 1 ? "random walk"
                                   : "group (RPGM)";
    models.add_row({name, bench::fmt_count(violations),
                    bench::fmt_count(roles),
                    bench::fmt(events > 0 ? static_cast<double>(region_total) /
                                                static_cast<double>(events)
                                          : 0.0,
                               1),
                    bench::fmt_count(net.dominators().size())});
  }
  models.print(std::cout);
  std::cout << "\nExpected shape: zero violations under all three mobility "
               "models, with the\nrepair region staying a small fraction of "
               "the network even under continuous\nmotion; coherent group "
               "motion changes the fewest roles.\n";

  bench::banner(std::cout,
                "T6c: distributed MIS maintenance protocol (messages per "
                "mobility event)");
  bench::Table proto({"n", "bootstrap msgs", "msgs/event", "msgs/event/n",
                      "MIS valid after all"});
  for (const std::uint32_t pn : {100u, 250u, 500u}) {
    const double pside = geom::side_for_expected_degree(pn, 10.0);
    auto points = geom::uniform_square(pn, pside, 13);
    protocols::MisMaintenanceSession session(udg::build_udg(points));
    const bool boot = session.stabilize();
    const auto bootstrap_msgs = session.stats().transmissions;
    geom::Xoshiro256ss rng(pn + 7);
    bool all_valid = boot;
    const int kEvents = 30;
    for (int e = 0; e < kEvents; ++e) {
      const auto u = static_cast<NodeId>(rng.next_below(pn));
      points[u].x += rng.next_double(-0.8, 0.8);
      points[u].y += rng.next_double(-0.8, 0.8);
      const auto g = udg::build_udg(points);
      all_valid = session.update(g) && all_valid;
      all_valid =
          all_valid && mis::is_maximal_independent_set(g, session.mis_mask());
    }
    const double per_event =
        static_cast<double>(session.stats().transmissions - bootstrap_msgs) /
        kEvents;
    proto.add_row({std::to_string(pn), bench::fmt_count(bootstrap_msgs),
                   bench::fmt(per_event, 1),
                   bench::fmt(per_event / pn, 3),
                   all_valid ? "yes" : "NO"});
  }
  proto.print(std::cout);
  std::cout << "\nExpected shape: bootstrap costs ~2 messages per node; each "
               "mobility event\nthen costs a handful of messages independent "
               "of n (msgs/event/n shrinks) —\nthe protocol's locality.\n";

  print_event_cost_table();
}

void BM_MoveEvent(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const double side = geom::side_for_expected_degree(n, 12.0);
  maintenance::DynamicWcds net(geom::uniform_square(n, side, 3));
  geom::Xoshiro256ss rng(11);
  for (auto _ : state) {
    const auto u = static_cast<NodeId>(rng.next_below(n));
    geom::Point p = net.position(u);
    p.x += rng.next_double(-0.5, 0.5);
    p.y += rng.next_double(-0.5, 0.5);
    benchmark::DoNotOptimize(net.move_node(u, p));
  }
}
BENCHMARK(BM_MoveEvent)->Arg(200)->Arg(500)->Arg(4096)->Arg(16384);

}  // namespace

WCDS_BENCH_MAIN(print_tables)
