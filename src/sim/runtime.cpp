#include "sim/runtime.h"

#include <algorithm>
#include <string>

#include "check/check.h"

namespace wcds::sim {

std::size_t Context::node_count() const {
  return runtime_.graph_->node_count();
}

void Context::broadcast(MessageType type,
                        std::span<const std::uint32_t> payload) {
  runtime_.broadcast(self_, now_, type, payload);
}

void Context::unicast(NodeId dst, MessageType type,
                      std::span<const std::uint32_t> payload) {
  const graph::Graph& g = *runtime_.graph_;
  const std::size_t link = dst == sender_ ? g.row_begin(self_) + sender_slot_
                                          : g.edge_slot(self_, dst);
  runtime_.unicast(self_, now_, dst, link, type, payload);
}

void Context::set_timer(SimTime delay, std::uint64_t token) {
  runtime_.schedule_timer(self_, now_ + delay, token);
}

Runtime::Runtime(const graph::Graph& g, const NodeFactory& factory,
                 const DelayModel& delays, obs::Recorder* recorder,
                 FaultHook* faults, std::span<const NodeId> active)
    : graph_(&g), active_(active.begin(), active.end()), delays_(delays),
      delay_rng_(delays.seed + 1), recorder_(recorder), fault_(faults) {
  WCDS_REQUIRE(delays_.min_delay >= 1 && delays_.max_delay >= delays_.min_delay,
               "Runtime: invalid delay model");
  if (!delays_.is_unit()) {
    // Zero-initialized clocks need no first-send branch: every real delivery
    // time is >= 1, so max(at, 0 + 1) leaves a first send untouched.
    link_clock_.assign(g.adjacency_slots(), 0);
  }
  nodes_.resize(g.node_count());
  if (active_.empty()) {
    for (NodeId u = 0; u < g.node_count(); ++u) {
      nodes_[u] = factory(u);
      WCDS_REQUIRE(nodes_[u] != nullptr,
                   "Runtime: factory returned null node for " << u);
    }
  } else {
    for (NodeId u : active_) {
      WCDS_REQUIRE(u < g.node_count() && nodes_[u] == nullptr,
                   "Runtime: invalid or repeated active node " << u);
      nodes_[u] = factory(u);
      WCDS_REQUIRE(nodes_[u] != nullptr,
                   "Runtime: factory returned null node for " << u);
    }
  }
  // Mirror slots over the active rows, in one ascending pass: rows are
  // sorted and the active set is closed under adjacency, so u's index in
  // v's row is the number of v's neighbors visited before u.
  mirror_base_.assign(g.node_count(), 0);
  std::size_t slots = 0;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    if (nodes_[u] == nullptr) continue;
    mirror_base_[u] = slots;
    slots += g.degree(u);
  }
  mirror_.resize(slots);
  std::vector<std::uint32_t> cursor(g.node_count(), 0);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    if (nodes_[u] == nullptr) continue;
    std::uint32_t* mirror = mirror_.data() + mirror_base_[u];
    for (const NodeId v : g.neighbors(u)) *mirror++ = cursor[v]++;
  }
}

SimTime Runtime::async_delivery_time(std::size_t link_slot, SimTime now) {
  SimTime at = now + delays_.min_delay +
               delay_rng_.next_below(delays_.max_delay - delays_.min_delay + 1);
  // Radio links never reorder: a later send on the same link arrives
  // strictly after every earlier one.
  at = std::max(at, link_clock_[link_slot] + 1);
  link_clock_[link_slot] = at;
  return at;
}

void Runtime::count_type(MessageType type) {
  if (type >= per_type_counts_.size()) per_type_counts_.resize(type + 1, 0);
  ++per_type_counts_[type];
}

std::uint32_t Runtime::acquire_slot(NodeId src, NodeId dst, MessageType type,
                                    std::span<const std::uint32_t> payload) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    if (pool_size_ == chunks_.size() * kChunkSlots) {
      chunks_.push_back(std::make_unique<PoolSlot[]>(kChunkSlots));
    }
    slot = pool_size_++;
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  PoolSlot& entry = pool_slot(slot);
  entry.src = src;
  entry.dst = dst;
  entry.type = type;
  entry.size = static_cast<std::uint32_t>(payload.size());
  if (payload.size() <= kInlineWords) {
    std::copy(payload.begin(), payload.end(), entry.words.begin());
  } else {
    // Reuses the spill buffer's capacity; allocates only when this slot
    // never carried a payload this long.
    entry.spill.assign(payload.begin(), payload.end());
  }
  return slot;
}

void Runtime::settle_slot(std::uint32_t slot, std::uint32_t refs) {
  if (refs == 0) {
    free_slots_.push_back(slot);  // every copy was dropped
  } else {
    pool_slot(slot).refs = refs;
  }
}

void Runtime::release_ref(std::uint32_t slot) {
  PoolSlot& entry = pool_slot(slot);
  WCDS_DCHECK(entry.refs > 0, "Runtime: pool slot over-released");
  if (--entry.refs == 0) free_slots_.push_back(slot);
}

void Runtime::schedule_timer(NodeId node, SimTime at, std::uint64_t token) {
  queue_.push(at, {token, node, 0, 1, /*timer=*/true});
  ++pending_timers_;
}

std::uint32_t Runtime::enqueue_faulty_copy(std::uint32_t slot,
                                           std::uint32_t row_index,
                                           std::size_t link_slot,
                                           SimTime now) {
  if (fault_->drop_copy(link_slot)) return 0;
  const std::uint32_t copies = fault_->duplicate_copy(link_slot) ? 2U : 1U;
  for (std::uint32_t copy = 0; copy < copies; ++copy) {
    // Each copy (the duplicate too) draws its own jitter, so duplicates may
    // overtake the original — exactly the reordering a hardened protocol
    // must survive.
    const SimTime at = delivery_time(link_slot, now) + fault_->extra_delay();
    queue_.push(at, {slot, kInvalidNode, row_index, 1, /*timer=*/false});
  }
  return copies;
}

bool Runtime::begin_transmission(NodeId src, SimTime now, MessageType type) {
  // A crashed sender's radio is off: the transmission never happens, so it
  // is not part of the paper's message complexity either.
  if (fault_ != nullptr && fault_->send_blocked(src, now)) [[unlikely]] {
    return false;
  }
  ++stats_.transmissions;
  count_type(type);
  return true;
}

void Runtime::broadcast(NodeId src, SimTime now, MessageType type,
                        std::span<const std::uint32_t> payload) {
  if (!begin_transmission(src, now, type)) return;
  const auto count = static_cast<std::uint32_t>(graph_->degree(src));
  if (count > 0) {
    const std::uint32_t slot = acquire_slot(src, kBroadcastDst, type, payload);
    if (fault_ == nullptr && delays_.is_unit()) {
      // Every copy is due at now + 1 and nothing sent later can come
      // between them: one record delivers all d in row order.
      queue_.push(now + 1, {slot, kInvalidNode, 0, count, /*timer=*/false});
      settle_slot(slot, 1);
    } else {
      const std::size_t base = graph_->row_begin(src);
      std::uint32_t records = 0;
      for (std::uint32_t i = 0; i < count; ++i) {
        records += enqueue_copy(slot, i, base + i, now);
      }
      settle_slot(slot, records);
    }
  }
  if (recorder_ != nullptr) [[unlikely]] {
    record_send(src, kBroadcastDst, type, now);
  }
}

void Runtime::unicast(NodeId src, SimTime now, NodeId dst,
                      std::size_t link_slot, MessageType type,
                      std::span<const std::uint32_t> payload) {
  if (!begin_transmission(src, now, type)) return;
  if (link_slot == graph::Graph::kNoSlot) {
    // Legal only after a topology change, where the sender may hold stale
    // neighbor knowledge: the radio misses.
    WCDS_REQUIRE_STATE(topology_changed_, "Runtime: unicast "
                                              << src << " -> " << dst
                                              << " to a non-neighbor");
    ++stats_.dropped;
    if (recorder_ != nullptr) [[unlikely]] record_send(src, dst, type, now);
    return;
  }
  const std::uint32_t slot = acquire_slot(src, dst, type, payload);
  if (recorder_ != nullptr) [[unlikely]] record_send(src, dst, type, now);
  const auto row_index =
      static_cast<std::uint32_t>(link_slot - graph_->row_begin(src));
  settle_slot(slot, enqueue_copy(slot, row_index, link_slot, now));
}

void Runtime::record_send(NodeId src, NodeId dst, MessageType type,
                          SimTime now) {
  max_queue_depth_ =
      std::max<std::uint64_t>(max_queue_depth_, queue_depth());
  if (obs::TraceSink* sink = recorder_->trace_sink()) {
    obs::TraceEvent event;
    event.kind = obs::TraceEvent::Kind::kSend;
    event.time = now;
    event.src = src;
    event.dst = dst == kBroadcastDst ? obs::kTraceBroadcastDst : dst;
    event.message_type = type;
    event.queue_depth = queue_depth();
    sink->on_event(event);
  }
}

void Runtime::record_deliver(SimTime time, NodeId src, NodeId recipient,
                             MessageType type) {
  if (obs::TraceSink* sink = recorder_->trace_sink()) {
    obs::TraceEvent event;
    event.kind = obs::TraceEvent::Kind::kDeliver;
    event.time = time;
    event.src = src;
    event.dst = recipient;
    event.message_type = type;
    event.queue_depth = queue_depth();
    sink->on_event(event);
  }
}

void record_run_metrics(obs::Recorder* recorder, const RunStats& stats,
                        std::uint64_t max_queue_depth) {
  if (recorder == nullptr) return;
  auto& metrics = recorder->metrics();
  metrics.add("sim/transmissions", stats.transmissions);
  metrics.add("sim/deliveries", stats.deliveries);
  metrics.set_max("sim/completion_time",
                  static_cast<double>(stats.completion_time));
  metrics.set_max("sim/max_queue_depth",
                  static_cast<double>(max_queue_depth));
  metrics.set("sim/quiescent", stats.quiescent ? 1.0 : 0.0);
  for (const auto& [type, count] : stats.per_type) {
    metrics.add("sim/msg_type/" + std::to_string(type), count);
  }
}

void Runtime::finalize_stats(bool quiescent) {
  stats_.quiescent = quiescent;
  for (std::size_t type = 0; type < per_type_counts_.size(); ++type) {
    if (per_type_counts_[type] != 0) {
      stats_.per_type[static_cast<MessageType>(type)] = per_type_counts_[type];
    }
  }
  // Budget-tripped runs fold their stats too — those are exactly the runs
  // worth inspecting.
  record_run_metrics(recorder_, stats_, max_queue_depth_);
}

RunStats Runtime::run(std::uint64_t max_events) {
  if (!started_) {
    started_ = true;
    if (active_.empty()) {
      for (NodeId u = 0; u < nodes_.size(); ++u) {
        Context ctx(*this, u, 0);
        nodes_[u]->on_start(ctx);
      }
    } else {
      // A shard's members ascend within the component, so a member-
      // restricted sweep sees exactly the global on_start order restricted
      // to the shard.
      for (NodeId u : active_) {
        Context ctx(*this, u, 0);
        nodes_[u]->on_start(ctx);
      }
    }
  }
  std::uint64_t events = 0;
  while (!queue_.empty()) {
    if (events == max_events) {
      finalize_stats(false);
      return stats_;
    }
    const Event event = queue_.pop();
    const SimTime now = queue_.now();
    if (event.timer) {
      ++events;
      --pending_timers_;
      ++stats_.timer_fires;
      Context ctx(*this, event.node, now);
      nodes_[event.node]->on_timer(ctx, event.ref);
      continue;
    }
    // The budget counts copies: a trip inside a record leaves the rest of
    // it queued, and the next run() resumes from them.
    const auto budget = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(event.count, max_events - events));
    deliver(event, now, budget);
    events += budget;
    if (budget < event.count) {
      Event rest = event;
      rest.first += budget;
      rest.count -= budget;
      queue_.unpop(rest);
      continue;
    }
    release_ref(static_cast<std::uint32_t>(event.ref));
  }
  finalize_stats(true);
  return stats_;
}

void Runtime::deliver(const Event& event, SimTime now, std::uint32_t budget) {
  const PoolSlot& entry = pool_slot(static_cast<std::uint32_t>(event.ref));
  // A stack view: the slot does not move while the handlers run.
  const Message message{entry.src, entry.dst, entry.type, entry.payload()};
  const NodeId* row = graph_->neighbors(message.src).data() + event.first;
  if (!topology_changed_) [[likely]] {
    const std::uint32_t* mirror =
        mirror_.data() + mirror_base_[message.src] + event.first;
    for (std::uint32_t k = 0; k < budget; ++k) {
      deliver_copy(message, row[k], mirror[k], now, event.count - k - 1);
    }
  } else {
    // The links may have changed since the send: re-derive each copy's
    // slot, and drop it if its link is gone.
    for (std::uint32_t k = 0; k < budget; ++k) {
      const NodeId recipient = event.node != kInvalidNode ? event.node : row[k];
      const std::size_t link = graph_->edge_slot(recipient, message.src);
      if (link == graph::Graph::kNoSlot) [[unlikely]] {
        ++stats_.dropped;
        continue;
      }
      const auto sender_slot =
          static_cast<std::uint32_t>(link - graph_->row_begin(recipient));
      deliver_copy(message, recipient, sender_slot, now, event.count - k - 1);
    }
  }
  in_hand_ = 0;
}

void Runtime::deliver_copy(const Message& message, NodeId recipient,
                           std::uint32_t sender_slot, SimTime now,
                           std::uint32_t in_hand) {
  if (fault_ != nullptr && fault_->receive_blocked(recipient, now))
      [[unlikely]] {
    // Recipient radio is off: the copy evaporates without touching
    // delivery stats or the recipient's state.
    return;
  }
  ++stats_.deliveries;
  stats_.completion_time = now;
  in_hand_ = in_hand;
  if (recorder_ != nullptr) [[unlikely]] {
    record_deliver(now, message.src, recipient, message.type);
  }
  Context ctx(*this, recipient, now, message.src, sender_slot);
  nodes_[recipient]->on_receive(ctx, message);
}

void Runtime::apply_topology(const graph::Graph& next) {
  WCDS_REQUIRE(next.node_count() == nodes_.size(),
               "apply_topology: node count mismatch");
  WCDS_REQUIRE(active_.empty(), "apply_topology: every node must be active");
  const SimTime now = this->now();
  const bool clocked = !delays_.is_unit();
  // A clock at or before now can no longer clamp a send.
  std::erase_if(stale_clocks_,
                [&](const StaleClock& stale) { return stale.clock <= now; });
  std::vector<SimTime> clocks(clocked ? next.adjacency_slots() : 0, 0);
  // Row indices name recipients only in the rows they were sent on: give
  // every pending copy its explicit recipient, in place and in order,
  // before the rows change.
  queue_.rewrite([&](const Event& event, std::vector<Event>& out) {
    if (event.timer || event.node != kInvalidNode) {
      out.push_back(event);
      return;
    }
    PoolSlot& entry = pool_slot(static_cast<std::uint32_t>(event.ref));
    entry.refs += event.count - 1;
    const NodeId* row = graph_->neighbors(entry.src).data() + event.first;
    for (std::uint32_t k = 0; k < event.count; ++k) {
      out.push_back({event.ref, row[k], 0, 1, /*timer=*/false});
    }
  });
  mirror_ = {};
  mirror_base_ = {};
  // Merge old and new rows per node: collect each changed edge once
  // (u < v) and carry every directed link's FIFO clock to its new slot.
  std::vector<std::pair<NodeId, NodeId>> downs;
  std::vector<std::pair<NodeId, NodeId>> ups;
  for (NodeId u = 0; u < nodes_.size(); ++u) {
    const auto old_row = graph_->neighbors(u);
    const auto new_row = next.neighbors(u);
    const std::size_t old_base = graph_->row_begin(u);
    const std::size_t new_base = next.row_begin(u);
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < old_row.size() || j < new_row.size()) {
      if (j == new_row.size() ||
          (i < old_row.size() && old_row[i] < new_row[j])) {
        const NodeId v = old_row[i];
        if (u < v) downs.emplace_back(u, v);
        if (clocked && link_clock_[old_base + i] > now) {
          stale_clocks_.push_back({u, v, link_clock_[old_base + i]});
        }
        ++i;
      } else if (i == old_row.size() || new_row[j] < old_row[i]) {
        const NodeId v = new_row[j];
        if (u < v) ups.emplace_back(u, v);
        const auto stale = std::find_if(
            stale_clocks_.begin(), stale_clocks_.end(),
            [&](const StaleClock& c) { return c.src == u && c.dst == v; });
        if (stale != stale_clocks_.end()) {
          clocks[new_base + j] = stale->clock;
          stale_clocks_.erase(stale);
        }
        ++j;
      } else {
        if (clocked) clocks[new_base + j] = link_clock_[old_base + i];
        ++i;
        ++j;
      }
    }
  }
  // Install the new topology first so handlers see the post-change world.
  owned_graph_ = next;
  graph_ = &owned_graph_;
  link_clock_ = std::move(clocks);
  topology_changed_ = true;
  for (const auto& [u, v] : downs) {
    Context cu(*this, u, now);
    nodes_[u]->on_link_down(cu, v);
    Context cv(*this, v, now);
    nodes_[v]->on_link_down(cv, u);
  }
  for (const auto& [u, v] : ups) {
    Context cu(*this, u, now);
    nodes_[u]->on_link_up(cu, v);
    Context cv(*this, v, now);
    nodes_[v]->on_link_up(cv, u);
  }
}

}  // namespace wcds::sim
