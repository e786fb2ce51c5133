#include "sim/event_queue.h"

#include <bit>
#include <utility>

namespace wcds::sim {
namespace {

// Largest distance between now() and a pending event (a 24 MB ring).
constexpr SimTime kMaxSpan = SimTime{1} << 20;

}  // namespace

void EventQueue::push_slow(SimTime at, const Event& event) {
  WCDS_DCHECK(at >= now_, "EventQueue: event scheduled in the past");
  if (at - now_ > mask_) grow(at);
  std::vector<Event>& bucket = buckets_[at & mask_];
  if (at == now_) {
    // The bucket being drained may reallocate: re-derive the cursor.
    const auto offset = head_ - bucket.data();
    bucket.push_back(event);
    head_ = bucket.data() + offset;
    tail_ = bucket.data() + bucket.size();
  } else {
    bucket.push_back(event);
  }
  size_ += event.count;
}

void EventQueue::advance() {
  buckets_[now_ & mask_].clear();
  do {
    ++now_;
  } while (buckets_[now_ & mask_].empty());
  std::vector<Event>& bucket = buckets_[now_ & mask_];
  head_ = bucket.data();
  tail_ = head_ + bucket.size();
}

// Every bucket holds one time in [now_, now_ + size), so moving buckets
// whole re-buckets them in order; moved vectors keep their storage, so the
// drain cursor stays valid.
void EventQueue::grow(SimTime at) {
  WCDS_REQUIRE_STATE(at - now_ < kMaxSpan,
                     "EventQueue: event due " << at - now_
                                              << " steps ahead exceeds the "
                                                 "ring limit");
  const std::size_t size = std::bit_ceil(at - now_ + 1);
  std::vector<std::vector<Event>> next(size);
  for (SimTime t = now_; t <= now_ + mask_; ++t) {
    next[t & (size - 1)] = std::move(buckets_[t & mask_]);
  }
  buckets_ = std::move(next);
  mask_ = size - 1;
}

}  // namespace wcds::sim
