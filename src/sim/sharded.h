// Component-sharded simulation runner: independent per-component Runtime
// sub-runs plus a deterministic index-ordered merge.
//
// Contract (the whole point): for a fixed topology, seed and fault plan, the
// merged traces, RunStats, metrics and every protocol-visible node state are
// byte-identical whether the shards execute serially or on the thread pool,
// at any thread count.  Three ingredients make this structural rather than
// hoped-for:
//  - shards are whole connected components (ShardPlan), so no message ever
//    crosses a shard boundary;
//  - every per-shard RNG stream (delay model, fault injector) is a pure
//    function of the shard: the run's own seed when the plan has one shard,
//    shard_stream_seed(seed, component) when it has several — never of
//    global interleaving or thread schedule;
//  - each shard writes only its own ShardOutcome slot; the merge folds the
//    slots in component-index order on the calling thread.
//
// protocols/run_components.h is the one caller that composes a whole run
// from these pieces.  docs/PERFORMANCE.md ("Component-sharded execution")
// carries the full determinism argument.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "obs/recorder.h"
#include "obs/trace.h"
#include "sim/runtime.h"

namespace wcds::sim {

// Everything one shard's sub-run produces.  Slots are written by exactly one
// shard task and read only after the parallel region joins.
struct ShardOutcome {
  RunStats stats;
  std::uint64_t max_queue_depth = 0;
  double run_ms = 0.0;  // wall time of Runtime::run (recorded runs only)
  std::vector<obs::TraceEvent> trace;  // captured iff the caller traces
};

// Run one shard to quiescence (or budget trip) and capture its outcome.
//
// `members` must be a union of whole components (normally one ShardPlan
// shard), ascending; `delays` and `faults` must already carry the shard's
// own stream seeds.  `record` mirrors "outer recorder installed": it enables
// queue-depth tracking and the shard wall-clock phase so the merged metrics
// match a single-queue recorded run; `capture_trace` additionally buffers
// the shard's TraceEvents for ordered replay.  `inspect` (optional) runs on
// the quiesced Runtime before it is torn down — the extraction hook.
ShardOutcome run_shard(const graph::Graph& g, std::span<const NodeId> members,
                       const Runtime::NodeFactory& factory,
                       const DelayModel& delays, FaultHook* faults, bool record, bool capture_trace,
                       std::uint64_t max_events = kDefaultMaxEvents,
                       const std::function<void(Runtime&)>& inspect = {});

// Fold per-shard outcomes in index order: stats sum (completion_time and
// queue depth fold with max, quiescent with AND, per-type counts key-wise),
// buffered traces replay into `recorder`'s sink in shard order, and the
// aggregate records the sim/* metric family exactly once, plus the
// `sim/shards` gauge and one `phase_ms/sim/shard_run` observation per shard.
RunStats merge_shards(std::span<const ShardOutcome> outcomes,
                      obs::Recorder* recorder);

}  // namespace wcds::sim
