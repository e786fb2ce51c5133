// Test-only oracle for sim::EventQueue: the std::map event queue the
// simulator ran on before the ring of time buckets.  Events are keyed by
// (time, push order), so popping the map's first entry is the exact order
// the ring must reproduce.  The oracle holds single copies: a multi-copy
// record is pushed here as its copies, one after another.
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
    queue_.emplace(std::pair{at, pushes_++}, event);
  }

  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] std::size_t size() const { return queue_.size(); }

  // The earliest (time, event) by (time, push order).  Requires !empty().
  std::pair<sim::SimTime, sim::Event> pop() {
    const auto first = queue_.begin();
    const std::pair<sim::SimTime, sim::Event> out{first->first.first,
                                                  first->second};
    queue_.erase(first);
    return out;
  }

 private:
  std::uint64_t pushes_ = 0;
  std::map<std::pair<sim::SimTime, std::uint64_t>, sim::Event> queue_;
};

}  // namespace wcds::testing
