#include "fault/injector.h"

#include <algorithm>

#include "check/check.h"

namespace wcds::fault {

Injector::Injector(Plan plan, std::size_t node_count)
    : plan_(std::move(plan)), rng_(plan_.seed) {
  plan_.validate(node_count);
  std::sort(plan_.link_overrides.begin(), plan_.link_overrides.end(),
            [](const LinkOverride& a, const LinkOverride& b) {
              return a.link_slot < b.link_slot;
            });
  if (!plan_.crashes.empty()) {
    std::sort(plan_.crashes.begin(), plan_.crashes.end(),
              [](const CrashWindow& a, const CrashWindow& b) {
                return a.node != b.node ? a.node < b.node
                                        : a.down_from < b.down_from;
              });
    window_begin_.assign(node_count + 1, 0);
    for (const CrashWindow& window : plan_.crashes) {
      ++window_begin_[window.node + 1];
    }
    for (std::size_t u = 0; u < node_count; ++u) {
      window_begin_[u + 1] += window_begin_[u];
    }
  }
}

bool Injector::down(NodeId node, sim::SimTime at) const {
  if (window_begin_.empty()) return false;
  const std::uint32_t begin = window_begin_[node];
  const std::uint32_t end = window_begin_[node + 1];
  for (std::uint32_t i = begin; i < end; ++i) {
    const CrashWindow& window = plan_.crashes[i];
    if (at >= window.down_from && at < window.up_at) return true;
  }
  return false;
}

const LinkOverride* Injector::override_for(std::size_t link_slot) const {
  const auto it = std::lower_bound(
      plan_.link_overrides.begin(), plan_.link_overrides.end(), link_slot,
      [](const LinkOverride& entry, std::size_t slot) {
        return entry.link_slot < slot;
      });
  if (it != plan_.link_overrides.end() && it->link_slot == link_slot) {
    return &*it;
  }
  return nullptr;
}

bool Injector::send_blocked(NodeId src, sim::SimTime now) {
  if (!down(src, now)) return false;
  ++counters_.suppressed_sends;
  return true;
}

bool Injector::drop_copy(std::size_t link_slot) {
  // Always draw, even at probability zero: the stream position must depend
  // only on the call sequence, never on earlier outcomes' plan values.
  const double roll = rng_.next_double();
  const LinkOverride* entry = override_for(link_slot);
  const double probability = entry != nullptr ? entry->drop : plan_.drop;
  if (roll >= probability) return false;
  ++counters_.dropped;
  return true;
}

bool Injector::duplicate_copy(std::size_t link_slot) {
  const double roll = rng_.next_double();
  const LinkOverride* entry = override_for(link_slot);
  const double probability =
      entry != nullptr ? entry->duplicate : plan_.duplicate;
  if (roll >= probability) return false;
  ++counters_.duplicated;
  return true;
}

sim::SimTime Injector::extra_delay() {
  if (plan_.max_jitter == 0) return 0;
  // The gate is a plan constant, not link state: either every delivery in a
  // run draws jitter or none does, so the stream position still depends only
  // on the delivery sequence.  (Drawing next_below(1) unconditionally would
  // also shift every existing zero-jitter trace.)
  return rng_.next_below(plan_.max_jitter + 1);
}

bool Injector::receive_blocked(NodeId recipient, sim::SimTime at) {
  if (!down(recipient, at)) return false;
  ++counters_.blocked_receives;
  return true;
}

void Injector::record_counters(obs::Recorder* recorder,
                               const Counters& counters) {
  if (recorder == nullptr) return;
  auto& metrics = recorder->metrics();
  metrics.add("fault/dropped", counters.dropped);
  metrics.add("fault/duplicated", counters.duplicated);
  metrics.add("fault/suppressed_sends", counters.suppressed_sends);
  metrics.add("fault/blocked_receives", counters.blocked_receives);
}

}  // namespace wcds::fault
