// Reliable-FIFO transport shim: fault::HardenedNode wraps any
// sim::ProtocolNode and gives it an exactly-once, in-order view of a lossy,
// duplicating, reordering radio.
//
// Design (docs/ROBUSTNESS.md carries the full argument):
//  - Every logical send of the wrapped protocol — broadcast or unicast —
//    leaves the radio as ONE physical broadcast DATA frame carrying
//    [seq, orig_type, orig_dst, payload...], where seq is the sender's
//    global frame counter.  Sending logical unicasts as addressed
//    broadcasts is what real radios do anyway, and it lets every neighbor
//    see every seq: a gap is always a loss, never "a unicast meant for
//    someone else".
//  - Each neighbor acks every DATA frame it hears with a cumulative ACK
//    (the highest seq received contiguously); a frame is settled when every
//    neighbor's cumulative ack covers it.
//  - Unsettled frames are rebroadcast on a retransmit timer with capped
//    exponential backoff (RetransmitOptions); ack progress resets the
//    backoff.  Crashed neighbors simply ack late — crash means radio off,
//    state kept — so retransmit-until-recovery is sufficient for liveness.
//  - The receiver holds a per-sender reorder buffer and delivers frames to
//    the wrapped protocol in seq order, exactly once, filtered by orig_dst.
//    The wrapped protocol therefore runs over what is effectively an
//    asynchronous reliable network — a regime its correctness tests already
//    cover.
//
// The wrapped protocol's sends are intercepted by handing it a FrameContext
// (a sim::Context whose virtual send methods frame instead of transmit).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "graph/types.h"
#include "obs/recorder.h"
#include "sim/message.h"
#include "sim/runtime.h"

namespace wcds::fault {

// Wire-level frame types; the 9x range is reserved for the transport so it
// never collides with a protocol's own message enums.
enum HardenedMessageType : sim::MessageType {
  kMsgData = 90,
  kMsgAck = 91,
};

// Trace name for the transport frame types (null for foreign types).
[[nodiscard]] const char* hardened_message_name(sim::MessageType type);

// Retransmit clock: first timeout `initial_rto`, doubled per silent timeout
// up to `max_rto`, reset on cumulative-ack progress.  At most `max_burst`
// unsettled frames are rebroadcast per timeout.
struct RetransmitOptions {
  sim::SimTime initial_rto = 8;
  sim::SimTime max_rto = 64;
  std::size_t max_burst = 16;
};

// Per-node transport counters, folded into `fault/*` metrics by
// record_transport_metrics().
struct TransportStats {
  std::uint64_t frames_sent = 0;         // first transmissions of a frame
  std::uint64_t retransmits = 0;         // rebroadcasts of unsettled frames
  std::uint64_t acks_sent = 0;
  std::uint64_t duplicates_ignored = 0;  // already-delivered copies heard

  friend bool operator==(const TransportStats&, const TransportStats&) =
      default;
};

class HardenedNode;

// The Context handed to the wrapped protocol: reads pass through, sends are
// framed through the owning HardenedNode's reliable transport.
class FrameContext final : public sim::Context {
 public:
  FrameContext(const sim::Context& base, HardenedNode& owner)
      : sim::Context(base), owner_(owner) {}

  using sim::Context::broadcast;
  using sim::Context::unicast;
  void broadcast(sim::MessageType type,
                 std::span<const std::uint32_t> payload) override;
  void unicast(NodeId dst, sim::MessageType type,
               std::span<const std::uint32_t> payload) override;

 private:
  HardenedNode& owner_;
};

class HardenedNode final : public sim::ProtocolNode {
 public:
  explicit HardenedNode(std::unique_ptr<sim::ProtocolNode> inner,
                        RetransmitOptions options = {});

  void on_start(sim::Context& ctx) override;
  void on_receive(sim::Context& ctx, const sim::Message& msg) override;
  void on_timer(sim::Context& ctx, std::uint64_t token) override;

  [[nodiscard]] sim::ProtocolNode& inner() noexcept { return *inner_; }
  [[nodiscard]] const sim::ProtocolNode& inner() const noexcept {
    return *inner_;
  }
  [[nodiscard]] const TransportStats& transport_stats() const noexcept {
    return stats_;
  }

 private:
  friend class FrameContext;

  // One logical message in flight (or buffered out-of-order on receive).
  struct Frame {
    std::uint32_t seq = 0;
    sim::MessageType orig_type = 0;
    NodeId orig_dst = sim::kBroadcastDst;
    std::vector<std::uint32_t> payload;
  };

  // Per-sender receive stream: next_expected is the first seq not yet
  // delivered to the wrapped protocol; buffered holds out-of-order frames.
  struct InStream {
    std::uint32_t next_expected = 1;
    std::vector<Frame> buffered;
  };

  void queue_frame(sim::Context& ctx, sim::MessageType orig_type,
                   NodeId orig_dst, std::span<const std::uint32_t> payload);
  void broadcast_frame(sim::Context& ctx, const Frame& frame);
  void handle_data(sim::Context& ctx, const sim::Message& msg);
  void handle_ack(const sim::Message& msg);
  // Hand one logical message to the wrapped protocol; `payload` views the
  // DATA frame it arrived in, or the reorder buffer that parked it.
  void deliver_frame(sim::Context& ctx, NodeId src, sim::MessageType orig_type,
                     NodeId orig_dst, std::span<const std::uint32_t> payload);
  void arm_timer(sim::Context& ctx);
  [[nodiscard]] std::size_t peer_index(NodeId node) const;

  std::unique_ptr<sim::ProtocolNode> inner_;
  RetransmitOptions options_;
  TransportStats stats_;

  // Peers in CSR order plus a sorted (node, index) lookup table.
  std::vector<NodeId> peers_;
  std::vector<std::pair<NodeId, std::uint32_t>> peer_lookup_;

  // Send side: frames newer than min_acked_, oldest first.
  std::deque<Frame> outstanding_;
  std::uint32_t next_seq_ = 1;
  std::uint32_t min_acked_ = 0;
  std::vector<std::uint32_t> acked_up_to_;  // per peer, cumulative
  // Scratch for the wire form of one DATA frame; the runtime copies it out
  // before broadcast returns.
  std::vector<std::uint32_t> wire_;

  // Receive side, per peer.
  std::vector<InStream> in_;

  // Retransmit clock; timers cannot be cancelled, so stale fires are
  // filtered by generation token.
  sim::SimTime rto_ = 0;
  std::uint64_t timer_gen_ = 0;
  bool timer_active_ = false;
};

// Sum the TransportStats over every HardenedNode in `runtime` (other node
// types contribute nothing).
[[nodiscard]] TransportStats collect_transport_stats(
    const sim::Runtime& runtime);

// Fold the summed transport counters into `recorder` as `fault/frames`,
// `fault/retransmits`, `fault/acks`, `fault/dup_ignored` (null recorder is
// a no-op).  The stats overload serves the shard merge, which sums
// per-shard collections before recording once.
void record_transport_metrics(const TransportStats& total,
                              obs::Recorder* recorder);
void record_transport_metrics(const sim::Runtime& runtime,
                              obs::Recorder* recorder);

}  // namespace wcds::fault
