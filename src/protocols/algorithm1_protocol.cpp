#include "protocols/algorithm1_protocol.h"

#include <memory>
#include <span>
#include <utility>

#include "check/audit.h"
#include "check/check.h"
#include "fault/hardened.h"
#include "fault/injector.h"
#include "fault/plan.h"
#include "sim/shard_plan.h"
#include "sim/sharded.h"

namespace wcds::protocols {
namespace {

// Final-state accessor that sees through the hardened-transport wrapper.
const Algorithm1Node& as_algorithm1(const sim::Runtime& runtime, NodeId u,
                                    bool hardened) {
  const sim::ProtocolNode& node = runtime.node(u);
  if (!hardened) return static_cast<const Algorithm1Node&>(node);
  return static_cast<const Algorithm1Node&>(
      static_cast<const fault::HardenedNode&>(node).inner());
}

}  // namespace

const char* algorithm1_message_name(sim::MessageType type) {
  switch (type) {
    case kMsgCandidate: return "CANDIDATE";
    case kMsgResp: return "RESP";
    case kMsgCompleteA: return "COMPLETE-A";
    case kMsgLevel: return "LEVEL";
    case kMsgCompleteB: return "COMPLETE-B";
    case kMsgBlack: return "BLACK";
    case kMsgGrayI: return "GRAY";
  }
  return "?";
}

void Algorithm1Node::on_start(sim::Context& ctx) {
  neighbors_.assign(ctx.neighbors().size(), NeighborState{});
  started_ = true;
  best_cid_ = ctx.self();
  parent_ = kInvalidNode;
  if (ctx.neighbors().empty()) {
    // Single-node network: trivially the leader; marking is immediate.
    become_leader(ctx);
    return;
  }
  ctx.broadcast(kMsgCandidate, {best_cid_});
}

void Algorithm1Node::adopt(sim::Context& ctx, std::uint32_t cid,
                           NodeId new_parent) {
  best_cid_ = cid;
  parent_ = new_parent;
  resp_received_ = 0;
  children_ = 0;
  children_complete_ = 0;
  sent_complete_a_ = false;
  ctx.broadcast(kMsgCandidate, {cid});
}

void Algorithm1Node::maybe_complete_wave(sim::Context& ctx) {
  if (sent_complete_a_) return;
  if (resp_received_ != ctx.neighbors().size()) return;
  if (children_complete_ != children_) return;
  sent_complete_a_ = true;
  if (parent_ != kInvalidNode) {
    ctx.unicast(parent_, kMsgCompleteA, {best_cid_});
  } else if (best_cid_ == ctx.self()) {
    become_leader(ctx);
  }
}

void Algorithm1Node::become_leader(sim::Context& ctx) {
  leader_ = true;
  // Phase B: the root is at level 0 and announces it.
  announce_level(ctx, 0);
}

void Algorithm1Node::announce_level(sim::Context& ctx, std::uint32_t level) {
  level_ = level;
  if (ctx.neighbors().empty()) {
    start_marking(ctx);
    return;
  }
  ctx.broadcast(kMsgLevel, {level});
  maybe_complete_levels(ctx);
}

void Algorithm1Node::maybe_complete_levels(sim::Context& ctx) {
  if (level_ == kNoLevel || sent_complete_b_) return;
  // COMPLETE-B flows up once this node has leveled and every phase-A child
  // subtree reported.
  if (level_children_complete_ != children_) return;
  sent_complete_b_ = true;
  if (parent_ != kInvalidNode) {
    ctx.unicast(parent_, kMsgCompleteB);
  } else {
    start_marking(ctx);
  }
}

void Algorithm1Node::start_marking(sim::Context& ctx) {
  // The root may already have marked itself black: its marking predicate is
  // vacuous (no lower-rank neighbor exists), so maybe_turn_black can fire as
  // soon as all neighbor levels are known, before COMPLETE-B returns.  The
  // fixpoint of the marking rules is the same greedy MIS either way.
  if (color_ == Color::kBlack) return;
  color_ = Color::kBlack;
  if (!ctx.neighbors().empty()) ctx.broadcast(kMsgBlack);
}

void Algorithm1Node::turn_gray(sim::Context& ctx) {
  if (color_ != Color::kWhite) return;
  color_ = Color::kGray;
  ctx.broadcast(kMsgGrayI);
}

bool Algorithm1Node::ranks_below(const sim::Context& ctx,
                                 std::size_t slot) const {
  const std::pair<std::uint32_t, NodeId> mine{level_, ctx.self()};
  const std::pair<std::uint32_t, NodeId> theirs{neighbors_[slot].level,
                                                ctx.neighbors()[slot]};
  return theirs < mine;
}

void Algorithm1Node::maybe_turn_black(sim::Context& ctx) {
  if (color_ != Color::kWhite || level_ == kNoLevel) return;
  if (levels_known_ != neighbors_.size()) return;  // a level unknown: wait
  if (!ranked_) {
    // Levels never change once announced, so the lower-rank set is fixed
    // from here on; later GRAYs decrement the count.
    ranked_ = true;
    for (std::size_t slot = 0; slot < neighbors_.size(); ++slot) {
      if (ranks_below(ctx, slot) && !neighbors_[slot].gray) ++lower_not_gray_;
    }
  }
  if (lower_not_gray_ != 0) return;
  color_ = Color::kBlack;
  ctx.broadcast(kMsgBlack);
}

// Every counting handler is duplicate-safe: a replayed RESP, COMPLETE-A,
// LEVEL, COMPLETE-B or GRAY finds its neighbor slot already marked and
// counts nothing, so a duplicating radio cannot push a counter past the
// number of neighbors or children it waits for.
void Algorithm1Node::on_receive(sim::Context& ctx, const sim::Message& msg) {
  switch (msg.type) {
    case kMsgCandidate: {
      const std::uint32_t cid = msg.payload[0];
      if (cid < best_cid_) {
        adopt(ctx, cid, msg.src);
        ctx.unicast(msg.src, kMsgResp, {cid, 1});
      } else if (cid == best_cid_) {
        ctx.unicast(msg.src, kMsgResp, {cid, 0});
      }
      // cid > best: suppress; that wave is extinct here.
      break;
    }
    case kMsgResp: {
      const std::uint32_t cid = msg.payload[0];
      if (cid != best_cid_) break;  // stale wave
      NeighborState& from = neighbors_[ctx.neighbor_slot(msg.src)];
      if (from.resp_cid == cid) break;  // replay
      from.resp_cid = cid;
      ++resp_received_;
      if (msg.payload[1] == 1) ++children_;
      maybe_complete_wave(ctx);
      break;
    }
    case kMsgCompleteA: {
      const std::uint32_t cid = msg.payload[0];
      if (cid != best_cid_) break;  // stale wave
      NeighborState& from = neighbors_[ctx.neighbor_slot(msg.src)];
      if (from.complete_cid == cid) break;  // replay
      from.complete_cid = cid;
      ++children_complete_;
      maybe_complete_wave(ctx);
      break;
    }
    case kMsgLevel: {
      const std::uint32_t announced = msg.payload[0];
      // Record-once: a node announces its level a single time, so
      // re-hearing it can only be a replay.
      const std::size_t slot = ctx.neighbor_slot(msg.src);
      if (neighbors_[slot].level == kNoLevel) {
        neighbors_[slot].level = announced;
        ++levels_known_;
      }
      if (msg.src == parent_ && level_ == kNoLevel) {
        announce_level(ctx, announced + 1);
      }
      // A newly learned level can unblock the marking predicate.
      maybe_turn_black(ctx);
      break;
    }
    case kMsgCompleteB: {
      NeighborState& from = neighbors_[ctx.neighbor_slot(msg.src)];
      if (from.complete_b) break;  // replay
      from.complete_b = true;
      ++level_children_complete_;
      maybe_complete_levels(ctx);
      break;
    }
    case kMsgBlack: {
      turn_gray(ctx);
      break;
    }
    case kMsgGrayI: {
      const std::size_t slot = ctx.neighbor_slot(msg.src);
      if (!neighbors_[slot].gray) {
        neighbors_[slot].gray = true;
        if (ranked_ && ranks_below(ctx, slot)) --lower_not_gray_;
      }
      maybe_turn_black(ctx);
      break;
    }
    default:
      WCDS_REQUIRE_STATE(false, "Algorithm1Node: unknown message type "
                                    << msg.type);
  }
}

DistributedAlgorithm1Run run_algorithm1(const graph::Graph& g,
                                        const sim::DelayModel& delays,
                                        obs::Recorder* recorder,
                                        const fault::Plan* faults,
                                        sim::ExecutionPolicy execution,
                                        std::size_t threads) {
  WCDS_REQUIRE(g.node_count() > 0, "run_algorithm1: empty graph");
  obs::Recorder* rec = obs::recorder_or_global(recorder);
  obs::PhaseTimer total_timer(rec, "alg1/total");
  const bool hardened = faults != nullptr;
  const sim::Runtime::NodeFactory factory =
      hardened ? sim::Runtime::NodeFactory([](NodeId) {
        return std::make_unique<fault::HardenedNode>(
            std::make_unique<Algorithm1Node>());
      })
               : sim::Runtime::NodeFactory([](NodeId) {
                   return std::make_unique<Algorithm1Node>();
                 });

  const std::size_t n = g.node_count();
  const sim::ShardPlan plan = sim::ShardPlan::build(g);
  const std::size_t shard_count = plan.shard_count();
  DistributedAlgorithm1Run run;
  run.leaders.assign(shard_count, kInvalidNode);
  run.levels.resize(n);
  core::WcdsResult& r = run.wcds;
  r.mask.assign(n, false);
  r.color.assign(n, core::NodeColor::kGray);

  if (shard_count == 1) {
    // Connected graph: the historical single-runtime path, byte-for-byte —
    // ambient recorder on the runtime, unmixed seeds, zero shard overhead.
    std::unique_ptr<fault::Injector> injector;
    if (hardened) {
      injector = std::make_unique<fault::Injector>(*faults, n);
    }
    sim::Runtime runtime(g, factory, delays, rec, injector.get());
    {
      obs::PhaseTimer run_timer(rec, "alg1/protocol_run");
      run.stats = runtime.run();
    }
    WCDS_REQUIRE_STATE(run.stats.quiescent,
                       "run_algorithm1: event budget exceeded");
    if (hardened) {
      injector->record_metrics(rec);
      fault::record_transport_metrics(runtime, rec);
    }
    if (rec != nullptr) rec->metrics().set("sim/shards", 1.0);
    obs::PhaseTimer extract_timer(rec, "alg1/extract");
    for (NodeId u = 0; u < n; ++u) {
      const auto& node = as_algorithm1(runtime, u, hardened);
      if (node.is_leader()) {
        run.leader = u;
        run.leaders[0] = u;
      }
      run.levels[u] = node.level();
      if (node.is_dominator()) {
        r.mask[u] = true;
        r.dominators.push_back(u);
        r.color[u] = core::NodeColor::kBlack;
      }
    }
    r.mis_dominators = r.dominators;
    extract_timer.stop();
    // A quiescent run without a leader built no backbone at all; say so
    // instead of returning an empty WCDS.
    WCDS_REQUIRE_STATE(run.leader != kInvalidNode,
                       "run_algorithm1: quiesced without electing a leader");
  } else {
    // Disconnected deployment: one independent sub-run per component, under
    // `execution` (sim/sharded.h).  Extraction happens inside each shard —
    // every write lands in that shard's own slots — and the ordered merge
    // plus the ascending dominator-list rebuild below are serial.  Dominator
    // flags go through a byte array, not r.mask: vector<bool> packs bits
    // into shared words, so shards flagging adjacent node ids would race.
    std::vector<std::uint8_t> dominator(n, 0);
    std::vector<sim::ShardOutcome> outcomes(shard_count);
    std::vector<fault::Injector::Counters> fault_counters(
        hardened ? shard_count : 0);
    std::vector<fault::TransportStats> transports(hardened ? shard_count : 0);
    {
      obs::PhaseTimer run_timer(rec, "alg1/protocol_run");
      sim::for_each_shard(execution, shard_count, threads, [&](std::size_t c) {
        const std::span<const NodeId> members = plan.shard(c);
        std::unique_ptr<fault::Injector> injector;
        if (hardened) {
          injector = std::make_unique<fault::Injector>(
              faults->for_shard(static_cast<std::uint32_t>(c)), n);
        }
        sim::DelayModel shard_delays = delays;
        shard_delays.seed =
            sim::shard_stream_seed(delays.seed, static_cast<std::uint32_t>(c));
        outcomes[c] = sim::run_shard(
            g, members, factory, shard_delays, injector.get(),
            /*record=*/rec != nullptr,
            /*capture_trace=*/rec != nullptr && rec->trace_sink() != nullptr,
            sim::kDefaultMaxEvents, [&](sim::Runtime& runtime) {
              for (NodeId u : members) {
                const auto& node = as_algorithm1(runtime, u, hardened);
                if (node.is_leader()) run.leaders[c] = u;
                run.levels[u] = node.level();
                if (node.is_dominator()) dominator[u] = 1;
              }
              if (hardened) {
                fault_counters[c] = injector->counters();
                transports[c] = fault::collect_transport_stats(runtime);
              }
            });
      });
    }
    run.stats = sim::merge_shards(outcomes, rec);
    WCDS_REQUIRE_STATE(run.stats.quiescent,
                       "run_algorithm1: event budget exceeded");
    if (hardened) {
      fault::Injector::Counters counter_total;
      fault::TransportStats transport_total;
      for (std::size_t c = 0; c < shard_count; ++c) {
        counter_total.suppressed_sends += fault_counters[c].suppressed_sends;
        counter_total.dropped += fault_counters[c].dropped;
        counter_total.duplicated += fault_counters[c].duplicated;
        counter_total.blocked_receives += fault_counters[c].blocked_receives;
        transport_total.frames_sent += transports[c].frames_sent;
        transport_total.retransmits += transports[c].retransmits;
        transport_total.acks_sent += transports[c].acks_sent;
        transport_total.duplicates_ignored += transports[c].duplicates_ignored;
      }
      fault::Injector::record_counters(rec, counter_total);
      fault::record_transport_metrics(transport_total, rec);
    }
    obs::PhaseTimer extract_timer(rec, "alg1/extract");
    for (NodeId u = 0; u < n; ++u) {
      if (dominator[u] != 0) {
        r.mask[u] = true;
        r.color[u] = core::NodeColor::kBlack;
        r.dominators.push_back(u);
      }
    }
    r.mis_dominators = r.dominators;
    run.leader = run.leaders[0];
    extract_timer.stop();
    for (std::size_t c = 0; c < shard_count; ++c) {
      WCDS_REQUIRE_STATE(run.leaders[c] != kInvalidNode,
                         "run_algorithm1: component "
                             << c << " quiesced without electing a leader");
    }
  }

  if (rec != nullptr) {
    auto& metrics = rec->metrics();
    metrics.add("alg1/runs");
    metrics.observe("alg1/transmissions",
                    static_cast<double>(run.stats.transmissions));
    metrics.observe("alg1/completion_time",
                    static_cast<double>(run.stats.completion_time));
    metrics.observe("alg1/wcds_size", static_cast<double>(r.size()));
  }

  // Debug/test tripwire: the distributed run must land on the same
  // level-ranked-MIS invariants as the centralized construction (Theorem 4
  // included).
  if (check::audits_enabled()) {
    check::AuditOptions audit_options;
    audit_options.level_ranked = true;
    check::audit_invariants(g, r, audit_options);
  }
  return run;
}

}  // namespace wcds::protocols
