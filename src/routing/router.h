// Unified routing interface (paper, Section 4.2 + the GPSR baseline).
//
// Every routing scheme in this repository answers the same question — "give
// me a G-path from src to dst" — but until this header they answered it with
// divergent call shapes (ClusterheadRouter::route vs the free
// greedy_geographic_route).  routing::Router is the one vocabulary type:
// construct a concrete router (or let make_router pick by Strategy enum),
// then call route(src, dst) and read the Route.
//
// Consumers: the CLI's route command, bench_t5, bench_a4 and the examples.
// The service engine (src/service) walks ClusterheadRouter's tables
// directly instead.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "geom/point.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "wcds/algorithm2.h"

namespace wcds::routing {

struct Route {
  std::vector<NodeId> path;  // src first, dst last; consecutive = G-adjacent
  bool delivered = false;
  // Geographic greedy only: the packet failed in a local minimum (a void).
  // Clusterhead routing has no recovery mode to report; it leaves this false.
  bool stuck = false;

  [[nodiscard]] std::size_t hops() const {
    return path.empty() ? 0 : path.size() - 1;
  }
};

// Which scheme a Router implements; make_router() selects by this enum.
enum class Strategy : std::uint8_t {
  kClusterhead,  // paper §4.2: position-less routing over dominator tables
  kGeographic,   // GPSR greedy baseline: position-based, fails in voids
};

[[nodiscard]] const char* to_string(Strategy strategy);

class Router {
 public:
  virtual ~Router() = default;

  // Route a unicast packet from src to dst.  The returned path's consecutive
  // nodes are always G-adjacent; `delivered` is false when the scheme could
  // not complete the route (disconnected overlay, greedy void).  Throws
  // std::out_of_range unless both endpoints are nodes of the router's graph.
  [[nodiscard]] virtual Route route(NodeId src, NodeId dst) const = 0;

  [[nodiscard]] virtual Strategy strategy() const noexcept = 0;
};

// Construct the Strategy's router over `g`.  kClusterhead consumes the
// Algorithm II view (and ignores `points`); kGeographic consumes the node
// positions (and ignores `wcds`).  Both borrow their inputs — keep `g`, the
// view's backing storage, and `points` alive for the router's lifetime.
[[nodiscard]] std::unique_ptr<Router> make_router(
    Strategy strategy, const graph::Graph& g, core::Algorithm2View wcds,
    std::span<const geom::Point> points = {});

}  // namespace wcds::routing
