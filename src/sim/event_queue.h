// The simulator's single event queue: a ring of time buckets indexed by
// time modulo the ring size.
//
// Deliveries and local timers share one record type and one global send
// sequence (seq).  The runtime pushes in seq order and every bucket holds
// events of one time value only, so appending keeps each bucket sorted by
// seq and draining the buckets in time order pops in exact (time, seq)
// order — no heap, no sort.  An event due beyond the ring's horizon (FIFO
// clamps, fault jitter and retransmit timers have no fixed bound) doubles
// the ring until it fits; buckets move whole, so their order is kept.
// Under unit delays only two buckets are ever live.  A drained bucket is
// cleared in place, keeping its capacity, so the steady state allocates
// nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "check/check.h"
#include "graph/types.h"
#include "sim/message.h"

namespace wcds::sim {

// One queued event: a delivery of a pooled message, or a node-local timer.
struct Event {
  std::uint64_t seq;  // global send order, shared by deliveries and timers
  std::uint64_t ref;  // delivery: message pool slot; timer: its token
  NodeId node;        // the recipient, or the timer's owner
  bool timer;
};

class EventQueue {
 public:
  EventQueue() : buckets_(2), mask_(1) {}

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  // Time of the most recently popped event; 0 before the first pop.
  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::size_t ring_size() const { return buckets_.size(); }

  // `at` must not precede now(); pushes must come in seq order.
  void push(SimTime at, const Event& event) {
    // One compare catches both rare cases: `at` is now() (the bucket being
    // drained) or lies beyond the ring's horizon.
    if (at - now_ - 1 >= mask_) [[unlikely]] {
      push_slow(at, event);
      return;
    }
    buckets_[at & mask_].push_back(event);
    ++size_;
  }

  // The earliest event by (time, seq); advances now().  Requires !empty().
  Event pop() {
    WCDS_DCHECK(size_ > 0, "EventQueue: pop on an empty queue");
    if (head_ == tail_) advance();
    --size_;
    return *head_++;
  }

 private:
  void push_slow(SimTime at, const Event& event);
  // Step now() to the next non-empty bucket, clearing the drained one.
  void advance();
  // Double the ring until `at` fits (see event_queue.cpp).
  void grow(SimTime at);

  std::vector<std::vector<Event>> buckets_;
  SimTime mask_;
  SimTime now_ = 0;
  // The unread events of the bucket of now_.
  const Event* head_ = nullptr;
  const Event* tail_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace wcds::sim
