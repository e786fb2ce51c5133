// fault::Injector — the sim::FaultHook implementation that executes a
// fault::Plan deterministically.
//
// Every probabilistic decision consumes exactly one draw from a private
// Xoshiro256** stream seeded by the plan, in the runtime's documented call
// order, so a (plan, topology, protocol) triple replays the same faults on
// every run.  Crash windows are indexed per node at construction; the
// common no-crash case stays O(1) per query.
//
// The injector also counts what it did (`fault/dropped`,
// `fault/duplicated`, `fault/suppressed_sends`, `fault/blocked_receives`);
// record_counters() folds those counts into an obs::Recorder after the run.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/plan.h"
#include "geom/rng.h"
#include "graph/types.h"
#include "obs/recorder.h"
#include "sim/fault_hook.h"
#include "sim/message.h"

namespace wcds::fault {

class Injector final : public sim::FaultHook {
 public:
  struct Counters {
    std::uint64_t suppressed_sends = 0;   // sender radio was off
    std::uint64_t dropped = 0;            // copies lost in flight
    std::uint64_t duplicated = 0;         // copies delivered twice
    std::uint64_t blocked_receives = 0;   // recipient radio was off

    Counters& operator+=(const Counters& other) {
      suppressed_sends += other.suppressed_sends;
      dropped += other.dropped;
      duplicated += other.duplicated;
      blocked_receives += other.blocked_receives;
      return *this;
    }
    friend bool operator==(const Counters&, const Counters&) = default;
  };

  // `node_count` sizes the per-node crash-window index; every CrashWindow
  // in the plan must name a node below it.
  Injector(Plan plan, std::size_t node_count);

  [[nodiscard]] bool send_blocked(NodeId src, sim::SimTime now) override;
  [[nodiscard]] bool drop_copy(std::size_t link_slot) override;
  [[nodiscard]] bool duplicate_copy(std::size_t link_slot) override;
  [[nodiscard]] sim::SimTime extra_delay() override;
  [[nodiscard]] bool receive_blocked(NodeId recipient,
                                     sim::SimTime at) override;

  [[nodiscard]] const Plan& plan() const noexcept { return plan_; }
  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }

  // True while `node`'s radio is inside one of its crash windows.
  [[nodiscard]] bool down(NodeId node, sim::SimTime at) const;

  // Fold `counters` into `recorder` (null is a no-op).  Protocol runs sum
  // their shards' injector counters and record the total once.
  static void record_counters(obs::Recorder* recorder,
                              const Counters& counters);

 private:
  // The link override active for `link_slot`, or null.
  [[nodiscard]] const LinkOverride* override_for(std::size_t link_slot) const;

  Plan plan_;  // crashes re-sorted by node; link_overrides by slot
  geom::Xoshiro256ss rng_;
  Counters counters_;
  // CSR index over the sorted crash windows: node u's windows occupy
  // [window_begin_[u], window_begin_[u + 1]).  Empty when the plan has none.
  std::vector<std::uint32_t> window_begin_;
};

}  // namespace wcds::fault
