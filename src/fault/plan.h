// fault::Plan — a seeded, declarative description of everything that may go
// wrong with the radio during a simulated run.
//
// A Plan is pure data: per-copy drop/duplicate probabilities (globally and
// per directed link), bounded delivery jitter, and node crash windows
// (including region blackouts computed from deployment geometry).  It is
// interpreted by fault::Injector, which turns it into the sim::FaultHook
// decisions the runtime consults on the delivery path.  Identical plans and
// seeds replay identical fault sequences — the determinism argument lives
// in docs/ROBUSTNESS.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/point.h"
#include "graph/types.h"
#include "sim/message.h"

namespace wcds::fault {

// One radio outage: `node` is deaf and mute in [down_from, up_at).  The
// node's CPU and timers keep running — crash means "radio off", not "state
// lost" — which is exactly what makes retransmit-until-recovery converge.
struct CrashWindow {
  NodeId node = kInvalidNode;
  sim::SimTime down_from = 0;
  sim::SimTime up_at = 0;

  friend bool operator==(const CrashWindow&, const CrashWindow&) = default;
};

// Per-directed-link probability override; `link_slot` is the sender's CSR
// adjacency slot for the recipient (graph::Graph::edge_slot).
struct LinkOverride {
  std::size_t link_slot = 0;
  double drop = 0.0;
  double duplicate = 0.0;

  friend bool operator==(const LinkOverride&, const LinkOverride&) = default;
};

struct Plan {
  // Global per-copy probabilities (each recipient copy of a broadcast rolls
  // independently, so a lossy broadcast reaches a random subset).
  double drop = 0.0;
  double duplicate = 0.0;

  // Extra delivery delay per copy, uniform in [0, max_jitter].  Jitter may
  // reorder a link; the hardened transport restores FIFO order.
  sim::SimTime max_jitter = 0;

  std::uint64_t seed = 0;

  std::vector<CrashWindow> crashes;
  std::vector<LinkOverride> link_overrides;

  // True when the plan can never perturb a run (the injector then behaves
  // exactly like a null hook).
  [[nodiscard]] bool trivial() const {
    return drop == 0.0 && duplicate == 0.0 && max_jitter == 0 &&
           crashes.empty() && link_overrides.empty();
  }

  // Throws std::invalid_argument unless every drop probability (global and
  // per link) is a number in [0, 1), every duplicate probability one in
  // [0, 1], and every crash window names a node below `node_count`.  Every
  // interpreter of a plan (fault::Injector, service::ServingEngine) calls
  // it, so they accept the same plans.
  void validate(std::size_t node_count) const;

  // Convenience constructors for the common experiment shapes.
  [[nodiscard]] static Plan lossy(double drop, std::uint64_t seed);
  [[nodiscard]] static Plan chaos(double drop, double duplicate,
                                  sim::SimTime max_jitter, std::uint64_t seed);

  Plan& crash(NodeId node, sim::SimTime down_from, sim::SimTime up_at);

  // Blackout every node within `radius` of `center` for [down_from, up_at);
  // returns how many nodes the region covered.
  std::size_t blackout_region(std::span<const geom::Point> points,
                              const geom::Point& center, double radius,
                              sim::SimTime down_from, sim::SimTime up_at);
};

}  // namespace wcds::fault
