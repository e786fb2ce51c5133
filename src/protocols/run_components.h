// One protocol run over every connected component of a deployment — the
// driver both distributed algorithms share.
//
// Algorithms I and II are message-passing protocols whose nodes never
// message across components, so a run over any deployment, connected or
// not, is the composition of independent per-component sub-runs
// (sim/sharded.h).  run_components is that composition: it plans the
// shards, wraps every node in the fault::HardenedNode transport when a
// fault plan is given, runs each shard (on parallel::pool_for(threads) when
// there are several), hands each quiesced shard to the caller's extraction
// hook, checks quiescence, and records the merged sim metrics and the
// summed fault and transport counters once.
//
// Seeds, the one rule: a plan with one shard runs under the caller's own
// delay and fault seeds; with two or more shards, shard c runs under
// sim::shard_stream_seed(seed, c) for both.  Outputs are therefore a pure
// function of (topology, seeds, plan), byte-identical at any thread count.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "fault/hardened.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "obs/recorder.h"
#include "sim/runtime.h"
#include "sim/shard_plan.h"

namespace wcds::fault {
struct Plan;
}  // namespace wcds::fault

namespace wcds::protocols {

// One quiesced shard, as the extraction hook sees it.  The hook runs on the
// shard's own thread: it may write only per-member slots of shared arrays.
struct Shard {
  std::size_t index;                // component index in the ShardPlan
  std::span<const NodeId> members;  // ascending node ids
  const sim::Runtime& runtime;
  bool hardened;                    // nodes are wrapped in HardenedNode

  // Member u's protocol state machine, seen through the transport wrapper.
  template <typename Node>
  [[nodiscard]] const Node& node(NodeId u) const {
    const sim::ProtocolNode& wrapped = runtime.node(u);
    return static_cast<const Node&>(
        hardened ? static_cast<const fault::HardenedNode&>(wrapped).inner()
                 : wrapped);
  }
};

// What a run hands back: the plan, the merged stats, and the hook's value
// for each shard in component order.
template <typename Result>
struct ComponentRun {
  sim::ShardPlan plan;
  sim::RunStats stats;
  std::vector<Result> shards;
};

// The loop itself, over a caller-built plan; `extract` runs once per shard.
// `run_phase` names the wall-clock phase around the shard runs and prefixes
// the budget-trip error.  `threads`: 0 = WCDS_THREADS env / hardware
// default, 1 = inline serial.
sim::RunStats run_shards(const graph::Graph& g, const sim::ShardPlan& plan,
                         const sim::Runtime::NodeFactory& make_node,
                         const sim::DelayModel& delays,
                         obs::Recorder* recorder, const fault::Plan* faults,
                         std::size_t threads, std::string_view run_phase,
                         const std::function<void(const Shard&)>& extract);

// Run `make_node`'s protocol to quiescence on every component of g and
// collect `extract(shard)` per shard.
template <typename Extract>
auto run_components(const graph::Graph& g,
                    const sim::Runtime::NodeFactory& make_node,
                    const sim::DelayModel& delays, obs::Recorder* recorder,
                    const fault::Plan* faults, std::size_t threads,
                    std::string_view run_phase, Extract&& extract) {
  using Result = std::invoke_result_t<Extract&, const Shard&>;
  ComponentRun<Result> run{sim::ShardPlan::build(g), {}, {}};
  run.shards.resize(run.plan.shard_count());
  run.stats = run_shards(
      g, run.plan, make_node, delays, recorder, faults, threads, run_phase,
      [&](const Shard& shard) { run.shards[shard.index] = extract(shard); });
  return run;
}

}  // namespace wcds::protocols
