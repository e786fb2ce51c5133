#include "maintenance/crash_schedule.h"

#include <chrono>

#include "check/audit.h"
#include "check/check.h"

namespace wcds::maintenance {
namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point start) {
  // The wall-clock reads below are the measurement this module exists to
  // make: repair latency feeds only the fault/repair_ms histogram, never a
  // trace, so nondeterminism cannot reach the byte-identical contract.
  // wcds-lint: allow(no-ambient-entropy)
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

CrashScheduleReport run_crash_schedule(DynamicWcds& wcds,
                                       std::span<const NodeId> victims,
                                       obs::Recorder* recorder) {
  // Validate the whole schedule first, so a bad one changes nothing.  Each
  // victim is back on before the next crashes, so the initial state is the
  // one every crash meets.
  for (const NodeId victim : victims) {
    WCDS_REQUIRE_BOUNDS(victim < wcds.node_count(),
                        "run_crash_schedule: victim " << victim << " of "
                                                      << wcds.node_count());
    WCDS_REQUIRE(wcds.is_active(victim),
                 "run_crash_schedule: victim " << victim
                                               << " is already inactive");
  }
  CrashScheduleReport report;
  report.outcomes.reserve(victims.size());
  for (const NodeId victim : victims) {
    CrashOutcome outcome;
    outcome.node = victim;

    // wcds-lint: allow(no-ambient-entropy) — timing is the deliverable here
    auto start = Clock::now();
    outcome.crash_repair = wcds.deactivate(victim);
    outcome.crash_ms = elapsed_ms(start);

    // wcds-lint: allow(no-ambient-entropy) — timing is the deliverable here
    start = Clock::now();
    outcome.recover_repair = wcds.activate(victim);
    outcome.recover_ms = elapsed_ms(start);

    report.total_repair_ms += outcome.crash_ms + outcome.recover_ms;
    if (recorder != nullptr) {
      auto& metrics = recorder->metrics();
      metrics.observe("fault/repair_ms", outcome.crash_ms);
      metrics.observe("fault/repair_ms", outcome.recover_ms);
    }
    report.outcomes.push_back(outcome);
  }
  return report;
}

SurvivalReport run_survival_schedule(const graph::Graph& g,
                                     const core::WcdsResult& result,
                                     std::span<const NodeId> victims,
                                     obs::Recorder* recorder) {
  SurvivalReport report;
  report.crashes = victims.size();
  for (const NodeId victim : victims) {
    WCDS_REQUIRE(victim < g.node_count(),
                 "run_survival_schedule: victim " << victim << " of "
                                                  << g.node_count());
    const NodeId single[] = {victim};
    const bool ok = check::survives_crashes(g, result, single);
    if (ok) {
      ++report.survived;
    } else {
      report.failed.push_back(victim);
    }
    if (recorder != nullptr) {
      recorder->metrics().add(ok ? "resilience/survived_crashes"
                                 : "resilience/failed_crashes");
    }
  }
  return report;
}

}  // namespace wcds::maintenance
