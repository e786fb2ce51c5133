#include "fault/hardened.h"

#include <algorithm>
#include <utility>

#include "check/check.h"

namespace wcds::fault {

const char* hardened_message_name(sim::MessageType type) {
  switch (type) {
    case kMsgData:
      return "DATA";
    case kMsgAck:
      return "ACK";
    default:
      return nullptr;
  }
}

void FrameContext::broadcast(sim::MessageType type,
                             std::span<const std::uint32_t> payload) {
  owner_.queue_frame(*this, type, sim::kBroadcastDst, payload);
}

void FrameContext::unicast(NodeId dst, sim::MessageType type,
                           std::span<const std::uint32_t> payload) {
  owner_.queue_frame(*this, type, dst, payload);
}

HardenedNode::HardenedNode(std::unique_ptr<sim::ProtocolNode> inner,
                           RetransmitOptions options)
    : inner_(std::move(inner)), options_(options), rto_(options.initial_rto) {
  WCDS_REQUIRE(inner_ != nullptr, "HardenedNode: null wrapped protocol");
  WCDS_REQUIRE(options_.initial_rto >= 1 &&
                   options_.max_rto >= options_.initial_rto &&
                   options_.max_burst >= 1,
               "HardenedNode: invalid RetransmitOptions");
}

void HardenedNode::on_start(sim::Context& ctx) {
  const auto neighbors = ctx.neighbors();
  peers_.assign(neighbors.begin(), neighbors.end());
  peer_lookup_.reserve(peers_.size());
  for (std::uint32_t i = 0; i < peers_.size(); ++i) {
    peer_lookup_.emplace_back(peers_[i], i);
  }
  std::sort(peer_lookup_.begin(), peer_lookup_.end());
  acked_up_to_.assign(peers_.size(), 0);
  in_.assign(peers_.size(), InStream{});
  FrameContext fctx(ctx, *this);
  inner_->on_start(fctx);
}

std::size_t HardenedNode::peer_index(NodeId node) const {
  const auto it = std::lower_bound(
      peer_lookup_.begin(), peer_lookup_.end(), node,
      [](const std::pair<NodeId, std::uint32_t>& entry, NodeId key) {
        return entry.first < key;
      });
  WCDS_REQUIRE_STATE(it != peer_lookup_.end() && it->first == node,
                     "HardenedNode: frame from non-neighbor " << node);
  return it->second;
}

void HardenedNode::queue_frame(sim::Context& ctx, sim::MessageType orig_type,
                               NodeId orig_dst,
                               std::span<const std::uint32_t> payload) {
  // A neighborless radio reaches nobody; dropping the frame mirrors the
  // physical broadcast and keeps the retransmit clock quiescent.
  if (peers_.empty()) return;
  Frame frame{next_seq_++, orig_type, orig_dst,
              {payload.begin(), payload.end()}};
  broadcast_frame(ctx, frame);
  ++stats_.frames_sent;
  outstanding_.push_back(std::move(frame));
  if (!timer_active_) arm_timer(ctx);
}

void HardenedNode::broadcast_frame(sim::Context& ctx, const Frame& frame) {
  wire_.assign({frame.seq, frame.orig_type, frame.orig_dst});
  wire_.insert(wire_.end(), frame.payload.begin(), frame.payload.end());
  // Qualified call with a span: transmit on the real radio even when `ctx`
  // is the FrameContext shim (its virtual broadcast would frame
  // recursively).
  ctx.sim::Context::broadcast(kMsgData, std::span<const std::uint32_t>(wire_));
}

void HardenedNode::on_receive(sim::Context& ctx, const sim::Message& msg) {
  switch (msg.type) {
    case kMsgData:
      handle_data(ctx, msg);
      return;
    case kMsgAck:
      handle_ack(msg);
      return;
    default:
      WCDS_REQUIRE_STATE(false, "HardenedNode: unframed message type "
                                    << msg.type << " from " << msg.src
                                    << " (mixed hardened/raw runtimes?)");
  }
}

void HardenedNode::handle_data(sim::Context& ctx, const sim::Message& msg) {
  WCDS_REQUIRE_STATE(msg.payload.size() >= 3,
                     "HardenedNode: truncated DATA frame from " << msg.src);
  const std::size_t peer = peer_index(msg.src);
  const std::uint32_t seq = msg.payload[0];
  InStream& stream = in_[peer];
  if (seq < stream.next_expected) {
    // Already delivered (a duplicate or a retransmit that lost the race);
    // the re-ack below repairs a possibly lost ACK.
    ++stats_.duplicates_ignored;
  } else if (seq == stream.next_expected) {
    deliver_frame(ctx, msg.src, static_cast<sim::MessageType>(msg.payload[1]),
                  static_cast<NodeId>(msg.payload[2]), msg.payload.subspan(3));
    ++stream.next_expected;
    // Drain the reorder buffer while it continues the stream.
    bool advanced = true;
    while (advanced) {
      advanced = false;
      for (std::size_t i = 0; i < stream.buffered.size(); ++i) {
        const Frame& parked = stream.buffered[i];
        if (parked.seq != stream.next_expected) continue;
        deliver_frame(ctx, msg.src, parked.orig_type, parked.orig_dst,
                      parked.payload);
        ++stream.next_expected;
        stream.buffered[i] = std::move(stream.buffered.back());
        stream.buffered.pop_back();
        advanced = true;
        break;
      }
    }
  } else {
    // Future frame: park it unless an identical copy already waits.
    const bool seen =
        std::any_of(stream.buffered.begin(), stream.buffered.end(),
                    [seq](const Frame& frame) { return frame.seq == seq; });
    if (seen) {
      ++stats_.duplicates_ignored;
    } else {
      stream.buffered.push_back(
          Frame{seq, static_cast<sim::MessageType>(msg.payload[1]),
                static_cast<NodeId>(msg.payload[2]),
                {msg.payload.begin() + 3, msg.payload.end()}});
    }
  }
  // Cumulative ack for everything contiguously received; sent even for
  // duplicates, since the previous ACK may have been lost.  A span, not a
  // braced list: the list overload would dispatch virtually again.
  const std::uint32_t cumulative = stream.next_expected - 1;
  ctx.sim::Context::unicast(msg.src, kMsgAck,
                            std::span<const std::uint32_t>(&cumulative, 1));
  ++stats_.acks_sent;
}

void HardenedNode::deliver_frame(sim::Context& ctx, NodeId src,
                                 sim::MessageType orig_type, NodeId orig_dst,
                                 std::span<const std::uint32_t> payload) {
  // Every neighbor hears every frame (that is what makes seq gaps
  // unambiguous); only the addressed ones surface to the protocol.
  if (orig_dst != sim::kBroadcastDst && orig_dst != ctx.self()) return;
  const sim::Message logical{src, orig_dst, orig_type, payload};
  FrameContext fctx(ctx, *this);
  inner_->on_receive(fctx, logical);
}

void HardenedNode::handle_ack(const sim::Message& msg) {
  WCDS_REQUIRE_STATE(msg.payload.size() == 1,
                     "HardenedNode: malformed ACK from " << msg.src);
  const std::size_t peer = peer_index(msg.src);
  const std::uint32_t cumulative = msg.payload[0];
  if (cumulative <= acked_up_to_[peer]) return;  // stale or duplicate ACK
  acked_up_to_[peer] = cumulative;
  const std::uint32_t floor =
      *std::min_element(acked_up_to_.begin(), acked_up_to_.end());
  if (floor <= min_acked_) return;
  min_acked_ = floor;
  while (!outstanding_.empty() && outstanding_.front().seq <= min_acked_) {
    outstanding_.pop_front();
  }
  // Progress: the network is moving again, so restart the backoff ladder.
  rto_ = options_.initial_rto;
}

void HardenedNode::arm_timer(sim::Context& ctx) {
  ++timer_gen_;
  ctx.set_timer(rto_, timer_gen_);
  timer_active_ = true;
}

void HardenedNode::on_timer(sim::Context& ctx, std::uint64_t token) {
  if (token != timer_gen_) return;  // superseded by a later arming
  timer_active_ = false;
  if (outstanding_.empty()) return;  // all settled; clock winds down
  const std::size_t burst = std::min(options_.max_burst, outstanding_.size());
  for (std::size_t i = 0; i < burst; ++i) {
    broadcast_frame(ctx, outstanding_[i]);
    ++stats_.retransmits;
  }
  rto_ = std::min(rto_ * 2, options_.max_rto);
  arm_timer(ctx);
}

TransportStats collect_transport_stats(const sim::Runtime& runtime) {
  TransportStats total;
  for (NodeId u = 0; u < runtime.node_count(); ++u) {
    // node_if: an active-subset runtime holds no state machine at all for
    // nodes outside its shard.
    const auto* node = dynamic_cast<const HardenedNode*>(runtime.node_if(u));
    if (node == nullptr) continue;
    const TransportStats& stats = node->transport_stats();
    total.frames_sent += stats.frames_sent;
    total.retransmits += stats.retransmits;
    total.acks_sent += stats.acks_sent;
    total.duplicates_ignored += stats.duplicates_ignored;
  }
  return total;
}

void record_transport_metrics(const TransportStats& total,
                              obs::Recorder* recorder) {
  if (recorder == nullptr) return;
  auto& metrics = recorder->metrics();
  metrics.add("fault/frames", total.frames_sent);
  metrics.add("fault/retransmits", total.retransmits);
  metrics.add("fault/acks", total.acks_sent);
  metrics.add("fault/dup_ignored", total.duplicates_ignored);
}

void record_transport_metrics(const sim::Runtime& runtime,
                              obs::Recorder* recorder) {
  record_transport_metrics(collect_transport_stats(runtime), recorder);
}

}  // namespace wcds::fault
