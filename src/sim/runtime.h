// Discrete-event message-passing runtime over a unit-disk graph.
//
// Execution model:
//  - At time 0 every node's on_start runs (ascending id order).
//  - A transmission sent at time t is delivered after a per-recipient delay:
//    1 time unit under the default synchronous model, or a seeded random
//    delay in [min_delay, max_delay] under an asynchronous DelayModel.
//    Per-(sender, recipient) FIFO order is always preserved (radio links
//    do not reorder).
//  - Deliveries and local timers are processed in (time, send order), so
//    runs are exactly reproducible given the seed.
//  - run() ends at quiescence (nothing pending) or when the event budget
//    trips (runaway-protocol guard).  It may be called again: after
//    apply_topology() changed the links (on_link_down / on_link_up fire on
//    both endpoints), or after with_node() nudged a node.  on_start fires
//    only on the first call; time and statistics carry over.
//
// Cost accounting matches the paper: message complexity = number of
// transmissions (a broadcast is ONE message); time complexity = the delivery
// time of the last message.
//
// Hot-path design (docs/PERFORMANCE.md): a simulated delivery costs one
// handler call.  A send takes its payload as a span and copies it ONCE into
// a recycled pool slot (payloads of up to four words inline, longer ones in
// a retained spill buffer).  Under unit delays with no fault hook a
// broadcast to d neighbors is ONE 24-byte queue record (pool slot, first
// row index, count) that delivers the d copies in the sender's row order;
// otherwise each copy has its own record.  Records go into one ring of time
// buckets (sim/event_queue.h); because sends happen in order, appending to
// a bucket keeps the exact (time, send order) without a heap.  Each copy
// knows its sender's slot in the recipient's row from a precomputed mirror
// of the adjacency, so neighbor_slot(msg.src) and a reply to msg.src search
// no row.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "geom/rng.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "obs/recorder.h"
#include "sim/event_queue.h"
#include "sim/fault_hook.h"
#include "sim/message.h"

namespace wcds::sim {

// Message-delay regime.  The default is the paper's synchronous unit-delay
// analysis model; the asynchronous variant stresses protocols with seeded
// random per-delivery delays (FIFO per link) — the paper's algorithms are
// event-driven and must stay correct under it.
struct DelayModel {
  SimTime min_delay = 1;
  SimTime max_delay = 1;
  std::uint64_t seed = 0;  // draws are deterministic given the seed

  [[nodiscard]] static DelayModel unit() { return {}; }
  [[nodiscard]] static DelayModel uniform(SimTime min_delay, SimTime max_delay,
                                          std::uint64_t seed) {
    return {min_delay, max_delay, seed};
  }
  [[nodiscard]] bool is_unit() const {
    return min_delay == 1 && max_delay == 1;
  }
};

// Default event budget of Runtime::run (runaway-protocol guard).  A
// protocol run over any topology is the composition of independent
// per-component sub-runs (protocols/run_components.h), and the budget
// applies per sub-run: shards cannot share a remaining-budget counter
// without reintroducing cross-shard coupling.
inline constexpr std::uint64_t kDefaultMaxEvents = 100'000'000;

class Runtime;

// Per-delivery view handed to protocol handlers; the only way a node may act
// on the network.  The send methods are virtual so a transport shim (the
// fault layer's FrameContext) can interpose on a wrapped node's sends while
// inheriting the read-only accessors.
class Context {
 public:
  // `sender` is the node whose message is being delivered (kInvalidNode
  // outside a delivery), `sender_slot` its index in self's neighbors().
  Context(Runtime& runtime, NodeId self, SimTime now,
          NodeId sender = kInvalidNode, std::uint32_t sender_slot = 0)
      : runtime_(runtime), self_(self), now_(now), sender_(sender),
        sender_slot_(sender_slot) {}
  virtual ~Context() = default;
  Context(const Context&) = default;
  Context& operator=(const Context&) = delete;

  [[nodiscard]] NodeId self() const { return self_; }
  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::span<const NodeId> neighbors() const;
  // Index of neighbor `v` in neighbors(): the slot protocols key their
  // per-neighbor state by.  O(1) for the sender of the message being
  // delivered, O(log d) otherwise; `v` must be a neighbor.
  [[nodiscard]] std::size_t neighbor_slot(NodeId v) const;
  [[nodiscard]] std::size_t node_count() const;

  // One radio transmission heard by every neighbor.  The payload is copied
  // before the call returns, so it may view a temporary or the message
  // being handled.
  virtual void broadcast(MessageType type,
                         std::span<const std::uint32_t> payload = {});
  void broadcast(MessageType type,
                 std::initializer_list<std::uint32_t> payload) {
    broadcast(type, std::span<const std::uint32_t>(payload));
  }

  // One transmission addressed to a single neighbor.  It must be adjacent;
  // once apply_topology() has changed the links, a unicast to a vanished
  // neighbor is dropped and counted instead (the sender may hold stale
  // neighbor knowledge).  A reply to the sender of the message being
  // delivered finds its link without a search.
  virtual void unicast(NodeId dst, MessageType type,
                       std::span<const std::uint32_t> payload = {});
  void unicast(NodeId dst, MessageType type,
               std::initializer_list<std::uint32_t> payload) {
    unicast(dst, type, std::span<const std::uint32_t>(payload));
  }

  // Arm a local timer: ProtocolNode::on_timer(token) fires on this node
  // after `delay` time units.  Timers are node-internal clocks — they do
  // not touch the radio, are never faulted (a crashed node's CPU keeps
  // ticking; only its radio is off), and count neither as transmissions nor
  // deliveries.
  void set_timer(SimTime delay, std::uint64_t token);

 private:
  Runtime& runtime_;
  NodeId self_;
  SimTime now_;
  NodeId sender_;
  std::uint32_t sender_slot_;
};

// A protocol's per-node state machine.
class ProtocolNode {
 public:
  virtual ~ProtocolNode() = default;
  virtual void on_start(Context& ctx) = 0;
  virtual void on_receive(Context& ctx, const Message& msg) = 0;
  // Fires for timers armed via Context::set_timer; protocols that never arm
  // one (everything outside the fault transport) keep the default no-op.
  virtual void on_timer(Context& ctx, std::uint64_t token) {
    static_cast<void>(ctx);
    static_cast<void>(token);
  }
  // Fire on both endpoints of a link that Runtime::apply_topology added or
  // removed; static protocols keep the default no-op.
  virtual void on_link_up(Context& ctx, NodeId neighbor) {
    static_cast<void>(ctx);
    static_cast<void>(neighbor);
  }
  virtual void on_link_down(Context& ctx, NodeId neighbor) {
    static_cast<void>(ctx);
    static_cast<void>(neighbor);
  }
};

struct RunStats {
  std::uint64_t transmissions = 0;          // paper's message complexity
  std::uint64_t deliveries = 0;             // per-recipient copies
  std::uint64_t timer_fires = 0;            // local timer events (no radio)
  // Copies lost to a topology change: in flight on a link that vanished, or
  // unicast to a neighbor that is gone.
  std::uint64_t dropped = 0;
  SimTime completion_time = 0;              // paper's time complexity
  // Post-run summary, not touched during delivery.
  std::map<MessageType, std::uint64_t> per_type;
  bool quiescent = false;                   // false iff the budget tripped

  friend bool operator==(const RunStats&, const RunStats&) = default;
};

class Runtime {
 public:
  // Called once per node at construction, never during delivery.
  using NodeFactory = std::function<std::unique_ptr<ProtocolNode>(NodeId)>;

  // `faults` (null by default) injects deterministic message loss,
  // duplication, delay noise and node crashes into the delivery path; see
  // sim/fault_hook.h for the contract.  The null-hook path is byte-identical
  // to a runtime built without the parameter (guarded by
  // tests/fault_test.cpp).
  //
  // `active` (empty by default = every node) restricts the runtime to a
  // subset of the graph's nodes: only active nodes get a ProtocolNode and an
  // on_start, in the given order.  The subset must be closed under adjacency
  // (a union of whole connected components, e.g. one ShardPlan shard) —
  // messages to nodes outside it would reach a null state machine.
  Runtime(const graph::Graph& g, const NodeFactory& factory,
          const DelayModel& delays = DelayModel::unit(),
          obs::Recorder* recorder = nullptr, FaultHook* faults = nullptr,
          std::span<const NodeId> active = {});
  // Not copyable or movable: graph_ may point at owned_graph_.
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // Observability hook.  Null (the default) records nothing and keeps the
  // hot path at a single predicted branch per event, so benchmark timings
  // stay honest; non-null feeds message-level TraceEvents (send/deliver
  // with queue depth) to the recorder's sink and folds the terminal
  // RunStats into its metrics after run().  Install before run().
  void set_recorder(obs::Recorder* recorder) noexcept {
    recorder_ = recorder;
  }
  [[nodiscard]] obs::Recorder* recorder() const noexcept { return recorder_; }

  // Install (or, with null, remove) the fault hook between runs; copies
  // already queued keep the fate decided when they were sent.
  void set_fault_hook(FaultHook* faults) noexcept { fault_ = faults; }
  [[nodiscard]] FaultHook* fault_hook() const noexcept { return fault_; }

  // Run until quiescence.  `max_events` guards against protocol bugs.
  // Stats (including the metrics fold into the recorder) are produced even
  // when the budget trips — those are exactly the runs worth inspecting.
  // Later calls resume at now() with everything still queued; on_start
  // fires only on the first call.  Every exit folds the running totals into
  // the recorder, so record runtimes that call run() once.
  RunStats run(std::uint64_t max_events = kDefaultMaxEvents);

  // Replace the topology (same node count; every node must be active).
  // on_link_down then on_link_up fire on both endpoints of every changed
  // link, in ascending (u, v) order with u's handler first, at now(); call
  // run() to let the protocol settle.  Copies in flight on a link that is
  // gone at delivery time are dropped, and per-link FIFO order holds across
  // the change.
  void apply_topology(const graph::Graph& next);

  // Run `fn(ctx, node)` on node u at now() — the hook a liveness watchdog
  // uses to nudge a protocol.  What the nudge sends stays queued until the
  // next run().
  template <typename Fn>
  void with_node(NodeId u, Fn&& fn) {
    Context ctx(*this, u, now());
    fn(ctx, *nodes_[u]);
  }

  [[nodiscard]] const graph::Graph& topology() const { return *graph_; }
  [[nodiscard]] ProtocolNode& node(NodeId u) { return *nodes_[u]; }
  [[nodiscard]] const ProtocolNode& node(NodeId u) const { return *nodes_[u]; }
  // Null-safe lookup: nullptr for nodes outside the active subset.
  [[nodiscard]] const ProtocolNode* node_if(NodeId u) const {
    return nodes_[u].get();
  }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  // Simulated time of the last processed event.
  [[nodiscard]] SimTime now() const noexcept { return queue_.now(); }
  // Totals over every run() so far.
  [[nodiscard]] const RunStats& stats() const noexcept { return stats_; }
  // Deepest queue observed while a recorder was installed (0 otherwise); the
  // shard merge layer folds these with set_max across components.
  [[nodiscard]] std::uint64_t max_queue_depth() const noexcept {
    return max_queue_depth_;
  }

 private:
  friend class Context;

  // Payloads of at most this many words live inside their pool slot.
  static constexpr std::size_t kInlineWords = 4;

  // One interned transmission.  `refs` counts the queue records still
  // holding it; the slot is recycled when the last one is delivered, and a
  // spill buffer keeps its capacity for the next long payload.
  struct PoolSlot {
    NodeId src = kInvalidNode;
    NodeId dst = kBroadcastDst;
    MessageType type = 0;
    std::uint32_t refs = 0;
    std::uint32_t size = 0;
    std::array<std::uint32_t, kInlineWords> words{};
    std::vector<std::uint32_t> spill;

    [[nodiscard]] std::span<const std::uint32_t> payload() const {
      return {size <= kInlineWords ? words.data() : spill.data(), size};
    }
  };

  // The pool grows a fixed-size chunk at a time, so a slot never moves:
  // the payload span a handler holds stays valid while its sends grow the
  // pool.
  static constexpr std::uint32_t kChunkBits = 8;
  static constexpr std::uint32_t kChunkSlots = 1U << kChunkBits;

  // The FIFO clock of a directed link that apply_topology removed while a
  // copy was still in flight on it; restored if the link comes back.
  struct StaleClock {
    NodeId src;
    NodeId dst;
    SimTime clock;
  };

  // Whether `src` may transmit now; counts the transmission if so.
  bool begin_transmission(NodeId src, SimTime now, MessageType type);
  void broadcast(NodeId src, SimTime now, MessageType type,
                 std::span<const std::uint32_t> payload);
  // `link_slot` is src's directed CSR slot for dst, or kNoSlot.
  void unicast(NodeId src, SimTime now, NodeId dst, std::size_t link_slot,
               MessageType type, std::span<const std::uint32_t> payload);
  // Enqueue the copy for entry `row_index` of the sender's row, honoring
  // the fault hook; returns the number of records scheduled (0 dropped, 1,
  // or 2 duplicated).  The null-hook case is the inline fast path.
  std::uint32_t enqueue_copy(std::uint32_t slot, std::uint32_t row_index,
                             std::size_t link_slot, SimTime now) {
    if (fault_ != nullptr) [[unlikely]] {
      return enqueue_faulty_copy(slot, row_index, link_slot, now);
    }
    queue_.push(delivery_time(link_slot, now),
                {slot, kInvalidNode, row_index, 1, /*timer=*/false});
    return 1;
  }
  std::uint32_t enqueue_faulty_copy(std::uint32_t slot,
                                    std::uint32_t row_index,
                                    std::size_t link_slot, SimTime now);

  // Deliver copies [0, budget) of a popped delivery record.
  void deliver(const Event& event, SimTime now, std::uint32_t budget);
  // One copy: the recipient's radio may be off, otherwise its handler runs.
  // `in_hand` is the number of the record's copies still undelivered.
  void deliver_copy(const Message& message, NodeId recipient,
                    std::uint32_t sender_slot, SimTime now,
                    std::uint32_t in_hand);

  [[nodiscard]] PoolSlot& pool_slot(std::uint32_t slot) {
    return chunks_[slot >> kChunkBits][slot & (kChunkSlots - 1)];
  }
  // Pool bookkeeping: a slot is acquired with no references, then given the
  // number of records actually scheduled (recycled at once if none were).
  [[nodiscard]] std::uint32_t acquire_slot(
      NodeId src, NodeId dst, MessageType type,
      std::span<const std::uint32_t> payload);
  void settle_slot(std::uint32_t slot, std::uint32_t refs);
  void release_ref(std::uint32_t slot);

  void schedule_timer(NodeId node, SimTime at, std::uint64_t token);
  // Pending deliveries, timers excluded: the trace's queue depth.  Counts
  // copies, including those of the record being delivered.
  [[nodiscard]] std::size_t queue_depth() const {
    return queue_.size() + in_hand_ - pending_timers_;
  }

  void count_type(MessageType type);

  // Recording slow paths, only reached with a non-null recorder.
  void record_send(NodeId src, NodeId dst, MessageType type, SimTime now);
  void record_deliver(SimTime time, NodeId src, NodeId recipient,
                      MessageType type);

  // Delivery time for one copy, honoring the delay model and per-link FIFO.
  // `link_slot` is the sender's directed CSR slot for the recipient
  // (graph::Graph::edge_slot), indexing the flat link-clock vector.
  [[nodiscard]] SimTime delivery_time(std::size_t link_slot, SimTime now) {
    return delays_.is_unit() ? now + 1 : async_delivery_time(link_slot, now);
  }
  [[nodiscard]] SimTime async_delivery_time(std::size_t link_slot,
                                            SimTime now);

  // Fold the dense per-type counters into stats_ and record metrics; runs on
  // both the quiescent and the budget-tripped exit path.
  void finalize_stats(bool quiescent);

  // The caller's graph, or owned_graph_ once apply_topology replaced it.
  const graph::Graph* graph_;
  graph::Graph owned_graph_;
  // Indexed by global NodeId; null outside the active subset.
  std::vector<std::unique_ptr<ProtocolNode>> nodes_;
  // on_start order; empty means all nodes in ascending id order.
  std::vector<NodeId> active_;

  // Mirror slots: for the copy on directed CSR slot (u, v), the index of u
  // in v's row, at mirror_[mirror_base_[u] + index of v in u's row].  Built
  // over the active rows only, for the construction-time topology; dropped
  // by apply_topology, after which deliveries re-derive the slot.
  std::vector<std::uint32_t> mirror_;
  std::vector<std::size_t> mirror_base_;

  EventQueue queue_;
  std::size_t pending_timers_ = 0;
  // Copies of the record being delivered that are not yet handed over.
  std::size_t in_hand_ = 0;

  // Message pool: chunks_[slot >> kChunkBits] holds slot.
  std::vector<std::unique_ptr<PoolSlot[]>> chunks_;
  std::uint32_t pool_size_ = 0;
  std::vector<std::uint32_t> free_slots_;

  RunStats stats_;
  // Dense per-type transmission counters, folded into stats_.per_type at the
  // end of run() (a map lookup per send is hot-path poison).
  std::vector<std::uint64_t> per_type_counts_;
  bool started_ = false;
  // Set by apply_topology: from then on deliveries re-check their link and
  // unicasts to non-neighbors are dropped rather than rejected.
  bool topology_changed_ = false;
  DelayModel delays_;
  geom::Xoshiro256ss delay_rng_;
  // Last scheduled delivery per directed link, indexed by the sender's CSR
  // adjacency slot; only materialized under an async delay model.
  std::vector<SimTime> link_clock_;
  std::vector<StaleClock> stale_clocks_;
  obs::Recorder* recorder_ = nullptr;
  FaultHook* fault_ = nullptr;
  std::uint64_t max_queue_depth_ = 0;  // tracked only while recording
};

// Inline: handlers call these on every delivery.
inline std::span<const NodeId> Context::neighbors() const {
  return runtime_.graph_->neighbors(self_);
}

inline std::size_t Context::neighbor_slot(NodeId v) const {
  if (v == sender_) return sender_slot_;
  const graph::Graph& g = *runtime_.graph_;
  const std::size_t link = g.edge_slot(self_, v);
  WCDS_DCHECK(link != graph::Graph::kNoSlot,
              "Context: " << v << " is not a neighbor of " << self_);
  return link - g.row_begin(self_);
}

// Fold one finished run's terminal stats into `recorder`'s metrics (null =
// no-op): the sim/* counter/gauge family of docs/OBSERVABILITY.md.  Shared
// by Runtime's exit path and merge_shards (sim/sharded.h), so a sharded run
// records exactly what the equivalent single-queue run would.
void record_run_metrics(obs::Recorder* recorder, const RunStats& stats,
                        std::uint64_t max_queue_depth);

}  // namespace wcds::sim
