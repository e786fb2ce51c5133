// Crash/recover schedules over the maintained backbone.
//
// The message-passing protocols take their faults from fault::Plan via the
// runtime hook; the event-driven maintenance layer (DynamicWcds) takes them
// here, as explicit radio-off / radio-on events.  This lives in
// maintenance/ (not fault/) because it drives DynamicWcds directly: the
// declared layer DAG puts fault/ below maintenance/, and the include graph
// must follow it (wcds_lint layer-dag).
// Each crash and each recovery runs the paper's localized repair and is
// timed; the wall-clock repair latencies land in the `fault/repair_ms`
// histogram so the A6 experiment can report loss-rate vs recovery-time.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.h"
#include "maintenance/dynamic_wcds.h"
#include "obs/recorder.h"
#include "wcds/wcds_result.h"

namespace wcds::maintenance {

// One crash/recover pair as applied to the maintained structure.
struct CrashOutcome {
  NodeId node = kInvalidNode;
  RepairReport crash_repair;
  RepairReport recover_repair;
  double crash_ms = 0.0;
  double recover_ms = 0.0;
};

struct CrashScheduleReport {
  std::vector<CrashOutcome> outcomes;
  double total_repair_ms = 0.0;
};

// Deactivate then reactivate each victim in order, auditing nothing itself:
// the DynamicWcds instance audits per event when built with audits on, and
// callers assert the final state.  Victims must be active and are restored
// before the next victim crashes (sequential outages).  The schedule is
// validated before the first crash: an out-of-range victim throws
// std::out_of_range and an inactive one std::invalid_argument, with no event
// applied.  `recorder` (null ok) receives one `fault/repair_ms` observation
// per repair.
CrashScheduleReport run_crash_schedule(DynamicWcds& wcds,
                                       std::span<const NodeId> victims,
                                       obs::Recorder* recorder = nullptr);

// Survival under the same schedule, without repair.  A (k,m)-resilient
// backbone (wcds/resilient.h) claims it can absorb any single crash with
// zero repair traffic; this replays `victims` — each crashing alone, the
// sequential-outage regime of run_crash_schedule — against the *static*
// `result` and judges each crash with check::survives_crashes.  The A9
// experiment pairs this against run_crash_schedule on a plain maintained
// backbone: same victims, repair_ms histogram vs survival counters.
struct SurvivalReport {
  std::size_t crashes = 0;
  std::size_t survived = 0;     // absorbed with zero repair
  std::vector<NodeId> failed;   // victims whose crash broke the backbone

  [[nodiscard]] bool all_survived() const { return survived == crashes; }
};

// `recorder` (null ok) receives one `resilience/survived_crashes` or
// `resilience/failed_crashes` count per victim.
SurvivalReport run_survival_schedule(const graph::Graph& g,
                                     const core::WcdsResult& result,
                                     std::span<const NodeId> victims,
                                     obs::Recorder* recorder = nullptr);

}  // namespace wcds::maintenance
