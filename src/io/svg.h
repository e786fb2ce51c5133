// SVG rendering of deployments, backbones, and spanners.
//
// Produces figures in the style of the paper's illustrations: gray nodes as
// small circles, MIS-dominators as filled black discs, additional-dominators
// as filled squares, white (non-backbone) UDG edges as light strokes and
// black (spanner) edges as dark strokes.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "geom/point.h"
#include "graph/graph.h"
#include "wcds/wcds_result.h"

namespace wcds::io {

// Render the deployment with its WCDS on a 900 px square canvas with a
// 24 px margin.  `wcds` may be empty-initialized (default WcdsResult) to
// draw the bare UDG.
void write_svg(std::ostream& os, const std::vector<geom::Point>& points,
               const graph::Graph& g, const core::WcdsResult& wcds);

void save_svg(const std::string& path, const std::vector<geom::Point>& points,
              const graph::Graph& g, const core::WcdsResult& wcds);

}  // namespace wcds::io
