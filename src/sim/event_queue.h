// The simulator's single event queue: a ring of time buckets indexed by
// time modulo the ring size.
//
// A record is one local timer or `count` copies of one pooled message that
// share a delivery time; a broadcast under unit delays is a single record.
// The runtime pushes records in the order their copies were sent and every
// bucket holds records of one time value only, so appending keeps each
// bucket in send order and draining the buckets in time order delivers
// copies in exact (time, send order) — no heap, no sort, no sequence
// number.  An event due beyond the ring's horizon (FIFO clamps, fault
// jitter and retransmit timers have no fixed bound) doubles the ring until
// it fits; buckets move whole, so their order is kept.  Under unit delays
// only two buckets are ever live.  A drained bucket is cleared in place,
// keeping its capacity, so the steady state allocates nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "check/check.h"
#include "graph/types.h"
#include "sim/message.h"

namespace wcds::sim {

// One queued record: `count` copies of a pooled message due at the same
// time, or a node-local timer (count 1).
struct Event {
  std::uint64_t ref;  // delivery: message pool slot; timer: its token
  // Timer: its owner.  Delivery: kInvalidNode while copy k goes to entry
  // first + k of the sender's adjacency row, or the one recipient once
  // Runtime::apply_topology made it explicit.
  NodeId node;
  std::uint32_t first;  // row index of the first copy's recipient
  std::uint32_t count;  // copies in the record
  bool timer;
};

class EventQueue {
 public:
  EventQueue() : buckets_(2), mask_(1) {}

  [[nodiscard]] bool empty() const { return size_ == 0; }
  // Pending copies (a timer counts one), not records.
  [[nodiscard]] std::size_t size() const { return size_; }
  // Time of the most recently popped record; 0 before the first pop.
  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::size_t ring_size() const { return buckets_.size(); }

  // `at` must not precede now(); pushes must come in send order.
  void push(SimTime at, const Event& event) {
    WCDS_DCHECK(event.count > 0, "EventQueue: empty record");
    // One compare catches both rare cases: `at` is now() (the bucket being
    // drained) or lies beyond the ring's horizon.
    if (at - now_ - 1 >= mask_) [[unlikely]] {
      push_slow(at, event);
      return;
    }
    buckets_[at & mask_].push_back(event);
    size_ += event.count;
  }

  // The earliest record by (time, send order), all its copies taken;
  // advances now().  Requires !empty().
  Event pop() {
    WCDS_DCHECK(size_ > 0, "EventQueue: pop on an empty queue");
    if (head_ == tail_) advance();
    size_ -= head_->count;
    return *head_++;
  }

  // Put the undelivered tail of the record the last pop() returned back at
  // the front, as if its copies had never been taken.  Pushes may come in
  // between; another pop() may not.
  void unpop(const Event& rest) {
    *--head_ = rest;
    size_ += rest.count;
  }

  // Replace every pending record, in order, by the records `split(event,
  // out)` appends to `out`.  The pending copies must stay the same.
  template <typename Split>
  void rewrite(Split&& split);

 private:
  void push_slow(SimTime at, const Event& event);
  // Step now() to the next non-empty bucket, clearing the drained one.
  void advance();
  // Double the ring until `at` fits (see event_queue.cpp).
  void grow(SimTime at);

  std::vector<std::vector<Event>> buckets_;
  SimTime mask_;
  SimTime now_ = 0;
  // The unread records of the bucket of now_.
  Event* head_ = nullptr;
  Event* tail_ = nullptr;
  std::size_t size_ = 0;  // pending copies
};

template <typename Split>
void EventQueue::rewrite(Split&& split) {
  std::vector<Event> out;
  [[maybe_unused]] std::size_t copies = 0;
  for (SimTime t = now_; t <= now_ + mask_; ++t) {
    std::vector<Event>& bucket = buckets_[t & mask_];
    const bool draining = t == now_;
    const Event* begin = draining ? head_ : bucket.data();
    const Event* end = draining ? tail_ : bucket.data() + bucket.size();
    out.clear();
    for (const Event* event = begin; event != end; ++event) {
      split(*event, out);
    }
    bucket.assign(out.begin(), out.end());
    for (const Event& event : bucket) copies += event.count;
    if (draining) {
      head_ = bucket.data();
      tail_ = head_ + bucket.size();
    }
  }
  WCDS_DCHECK(copies == size_, "EventQueue: rewrite changed the copies");
}

}  // namespace wcds::sim
