#include "serving_reference.h"

#include <algorithm>

namespace wcds::testing {

namespace {
constexpr std::uint32_t kNoHead = 0xFFFFFFFFu;
constexpr std::uint16_t kUnreachableDistance =
    routing::ClusterheadRouter::kUnreachableDistance;
using OverlayEdge = routing::ClusterheadRouter::OverlayEdge;
}  // namespace

ReferenceTables reference_tables(const routing::ClusterheadRouter& router) {
  const std::size_t h = router.heads().size();
  ReferenceTables tables;
  std::vector<std::uint32_t>& next_ = tables.next;
  std::vector<std::uint16_t>& dist_ = tables.dist;

  // Routing tables: BFS per head over the overlay.  The same traversal
  // yields the overlay hop distances, kept for candidate ordering in the
  // service layer (nearest advertising domain first).  Each head's row of
  // next_ doubles as the BFS's first-hop array: a head reached from src
  // inherits the first hop of the head that discovered it, so the whole
  // build is O(h * (h + E)) with no walk back up the BFS tree.
  next_.assign(h * h, kNoHead);
  dist_.assign(h * h, kUnreachableDistance);
  std::vector<std::uint32_t> frontier(h);
  for (std::uint32_t src = 0; src < h; ++src) {
    std::uint32_t* const first = &next_[src * h];
    std::uint16_t* const dist = &dist_[src * h];
    dist[src] = 0;
    frontier[0] = src;
    std::size_t tail = 1;
    for (std::size_t at = 0; at < tail; ++at) {
      const std::uint32_t a = frontier[at];
      for (const OverlayEdge& e : router.overlay_row(a)) {
        if (dist[e.to] != kUnreachableDistance) continue;  // visited
        dist[e.to] = static_cast<std::uint16_t>(std::min<std::uint32_t>(
            dist[a] + 1u, kUnreachableDistance - 1u));
        first[e.to] = a == src ? e.to : first[a];
        frontier[tail++] = e.to;
      }
    }
  }
  return tables;
}

}  // namespace wcds::testing
