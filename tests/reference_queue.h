// Test-only oracle for sim::EventQueue: the std::map event queue the
// simulator ran on before the ring of time buckets.  Events are keyed by
// (time, seq), so popping the map's first entry is the exact (time, seq)
// order by construction — the order the ring must reproduce.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>

#include "sim/event_queue.h"
#include "sim/message.h"

namespace wcds::testing {

class ReferenceQueue {
 public:
  void push(sim::SimTime at, const sim::Event& event) {
    queue_.emplace(std::pair{at, event.seq}, event);
  }

  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] std::size_t size() const { return queue_.size(); }

  // The earliest (time, event) by (time, seq).  Requires !empty().
  std::pair<sim::SimTime, sim::Event> pop() {
    const auto first = queue_.begin();
    const std::pair<sim::SimTime, sim::Event> out{first->first.first,
                                                  first->second};
    queue_.erase(first);
    return out;
  }

 private:
  std::map<std::pair<sim::SimTime, std::uint64_t>, sim::Event> queue_;
};

}  // namespace wcds::testing
