#include "protocols/run_components.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "check/check.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "parallel/thread_pool.h"
#include "sim/sharded.h"

namespace wcds::protocols {

sim::RunStats run_shards(const graph::Graph& g, const sim::ShardPlan& plan,
                         const sim::Runtime::NodeFactory& make_node,
                         const sim::DelayModel& delays,
                         obs::Recorder* recorder, const fault::Plan* faults,
                         std::size_t threads, std::string_view run_phase,
                         const std::function<void(const Shard&)>& extract) {
  const bool hardened = faults != nullptr;
  const sim::Runtime::NodeFactory wrap = [&make_node](NodeId u) {
    return std::make_unique<fault::HardenedNode>(make_node(u));
  };
  const sim::Runtime::NodeFactory& factory = hardened ? wrap : make_node;
  const bool record = recorder != nullptr;
  const bool capture_trace = record && recorder->trace_sink() != nullptr;

  const std::size_t shard_count = plan.shard_count();
  // The seed rule: one shard keeps the run's own seeds, several each draw
  // from their own stream.
  const auto shard_seed = [shard_count](std::uint64_t seed, std::size_t c) {
    return shard_count > 1
               ? sim::shard_stream_seed(seed, static_cast<std::uint32_t>(c))
               : seed;
  };
  struct ShardFaults {
    fault::Injector::Counters injected;
    fault::TransportStats transport;
  };
  std::vector<sim::ShardOutcome> outcomes(shard_count);
  std::vector<ShardFaults> shard_faults(hardened ? shard_count : 0);
  const auto run_one = [&](std::size_t c) {
    const std::span<const NodeId> members = plan.shard(c);
    std::optional<fault::Injector> injector;
    if (hardened) {
      // Crash windows and link overrides pass through whole: entries for
      // nodes and links outside the shard are never consulted.
      fault::Plan reseeded = *faults;
      reseeded.seed = shard_seed(faults->seed, c);
      injector.emplace(std::move(reseeded), g.node_count());
    }
    sim::DelayModel shard_delays = delays;
    shard_delays.seed = shard_seed(delays.seed, c);
    outcomes[c] = sim::run_shard(
        g, members, factory, shard_delays, hardened ? &*injector : nullptr,
        record, capture_trace, sim::kDefaultMaxEvents,
        [&](sim::Runtime& runtime) {
          extract(Shard{c, members, runtime, hardened});
          if (hardened) {
            shard_faults[c] = {injector->counters(),
                               fault::collect_transport_stats(runtime,
                                                              members)};
          }
        });
  };
  {
    obs::PhaseTimer run_timer(recorder, run_phase);
    // A single shard runs inline, so a connected run never creates a pool.
    if (shard_count > 1) {
      parallel::pool_for(threads).parallel_for(0, shard_count, 1, run_one);
    } else {
      run_one(0);
    }
  }

  const sim::RunStats stats = sim::merge_shards(outcomes, recorder);
  WCDS_REQUIRE_STATE(stats.quiescent,
                     run_phase << ": event budget exceeded");
  if (hardened) {
    ShardFaults total;
    for (const ShardFaults& shard : shard_faults) {
      total.injected += shard.injected;
      total.transport += shard.transport;
    }
    fault::Injector::record_counters(recorder, total.injected);
    fault::record_transport_metrics(total.transport, recorder);
  }
  return stats;
}

}  // namespace wcds::protocols
