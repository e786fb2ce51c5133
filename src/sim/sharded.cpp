#include "sim/sharded.h"

#include <algorithm>

#include "check/check.h"

namespace wcds::sim {

ShardOutcome run_shard(const graph::Graph& g, std::span<const NodeId> members,
                       const Runtime::NodeFactory& factory,
                       const DelayModel& delays, FaultHook* faults, bool record, bool capture_trace,
                       std::uint64_t max_events,
                       const std::function<void(Runtime&)>& inspect) {
  ShardOutcome out;
  // Shard-local recorder: per-shard trace buffering and queue-depth tracking
  // without touching the caller's (thread-unsafe) registry.  Its metric fold
  // is discarded — merge_shards records the aggregate exactly once.
  obs::Recorder local;
  obs::MemoryTraceSink sink;
  if (record && capture_trace) local.set_trace_sink(&sink);
  Runtime runtime(g, factory, delays, record ? &local : nullptr, faults,
                  members);
  {
    obs::PhaseTimer timer(record ? &local : nullptr, "sim/shard_run");
    out.stats = runtime.run(max_events);
  }
  out.max_queue_depth = runtime.max_queue_depth();
  if (record) {
    const obs::MetricsSnapshot snap = local.snapshot();
    const auto it = snap.histograms.find("phase_ms/sim/shard_run");
    if (it != snap.histograms.end()) out.run_ms = it->second.mean;
    out.trace = sink.events();
  }
  if (inspect) inspect(runtime);
  return out;
}

RunStats merge_shards(std::span<const ShardOutcome> outcomes,
                      obs::Recorder* recorder) {
  WCDS_REQUIRE(!outcomes.empty(), "merge_shards: no outcomes");
  RunStats merged;
  merged.quiescent = true;
  std::uint64_t max_queue_depth = 0;
  for (const ShardOutcome& out : outcomes) {
    merged.transmissions += out.stats.transmissions;
    merged.deliveries += out.stats.deliveries;
    merged.timer_fires += out.stats.timer_fires;
    merged.dropped += out.stats.dropped;
    merged.completion_time =
        std::max(merged.completion_time, out.stats.completion_time);
    merged.quiescent = merged.quiescent && out.stats.quiescent;
    for (const auto& [type, count] : out.stats.per_type) {
      merged.per_type[type] += count;
    }
    max_queue_depth = std::max(max_queue_depth, out.max_queue_depth);
  }
  if (recorder != nullptr) {
    if (obs::TraceSink* sink = recorder->trace_sink()) {
      for (const ShardOutcome& out : outcomes) {
        for (const obs::TraceEvent& event : out.trace) sink->on_event(event);
      }
    }
    record_run_metrics(recorder, merged, max_queue_depth);
    auto& metrics = recorder->metrics();
    metrics.set("sim/shards", static_cast<double>(outcomes.size()));
    for (const ShardOutcome& out : outcomes) {
      metrics.observe("phase_ms/sim/shard_run", out.run_ms);
    }
  }
  return merged;
}

}  // namespace wcds::sim
