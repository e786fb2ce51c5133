// Test-only oracle for routing::ClusterheadRouter's next-clusterhead rule:
// the per-head first-hop BFS it replaced.  The router used to keep an h x h
// next-hop table, filled by one FIFO BFS per head over the overlay in which
// a head reached from the source inherits the first hop of the head that
// discovered it.  The router now reads the next head off its distance table
// instead (the first overlay neighbor, in row order, one hop closer to the
// destination); serving_differential_test checks that both agree on every
// ordered head pair.
#pragma once

#include <cstdint>
#include <vector>

#include "routing/clusterhead_routing.h"

namespace wcds::testing {

// The tables the BFS filled, over router.overlay_row().  next[a * h + b] is
// the dense index of the next head after head a toward head b, 0xFFFFFFFF
// if b is unreachable from a or a == b; dist[a * h + b] is the overlay hop
// count from a to b, kUnreachableDistance if unreachable.
struct ReferenceTables {
  std::vector<std::uint32_t> next;
  std::vector<std::uint16_t> dist;
};
[[nodiscard]] ReferenceTables reference_tables(
    const routing::ClusterheadRouter& router);

}  // namespace wcds::testing
