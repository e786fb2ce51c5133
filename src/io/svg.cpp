#include "io/svg.h"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <stdexcept>

namespace wcds::io {
namespace {

constexpr double kCanvasPx = 900.0;  // longest side in pixels
constexpr double kMarginPx = 24.0;
constexpr double kNodeRadiusPx = 3.5;

struct Mapper {
  double scale;
  double ox, oy;
  double map_x(double x) const { return ox + x * scale; }
  double map_y(double y) const { return oy + y * scale; }
};

Mapper make_mapper(const std::vector<geom::Point>& points) {
  geom::BoundingBox box{{0, 0}, {1, 1}};
  if (!points.empty()) {
    box = {points[0], points[0]};
    for (const auto& p : points) box.expand(p);
  }
  const double w = std::max(box.width(), 1e-9);
  const double h = std::max(box.height(), 1e-9);
  const double usable = kCanvasPx - 2.0 * kMarginPx;
  const double scale = usable / std::max(w, h);
  return {scale, kMarginPx - box.min.x * scale, kMarginPx - box.min.y * scale};
}

}  // namespace

void write_svg(std::ostream& os, const std::vector<geom::Point>& points,
               const graph::Graph& g, const core::WcdsResult& wcds) {
  if (points.size() != g.node_count()) {
    throw std::invalid_argument("write_svg: point/graph size mismatch");
  }
  const bool have_wcds = wcds.mask.size() == points.size();
  const Mapper m = make_mapper(points);

  os << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << kCanvasPx
     << "\" height=\"" << kCanvasPx << "\" viewBox=\"0 0 " << kCanvasPx
     << ' ' << kCanvasPx << "\">\n";
  os << "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";

  const auto is_black_edge = [&](NodeId u, NodeId v) {
    return have_wcds && (wcds.mask[u] || wcds.mask[v]);
  };

  // Light background (white) edges, then dark backbone-incident ones.
  os << "<g stroke=\"#d0d0d0\" stroke-width=\"0.7\">\n";
  for (const auto& [u, v] : g.edges()) {
    if (is_black_edge(u, v)) continue;
    os << "<line x1=\"" << m.map_x(points[u].x) << "\" y1=\""
       << m.map_y(points[u].y) << "\" x2=\"" << m.map_x(points[v].x)
       << "\" y2=\"" << m.map_y(points[v].y) << "\"/>\n";
  }
  os << "</g>\n";
  if (have_wcds) {
    os << "<g stroke=\"#303030\" stroke-width=\"1.4\">\n";
    for (const auto& [u, v] : g.edges()) {
      if (!is_black_edge(u, v)) continue;
      os << "<line x1=\"" << m.map_x(points[u].x) << "\" y1=\""
         << m.map_y(points[u].y) << "\" x2=\"" << m.map_x(points[v].x)
         << "\" y2=\"" << m.map_y(points[v].y) << "\"/>\n";
    }
    os << "</g>\n";
  }

  std::vector<bool> additional(points.size(), false);
  if (have_wcds) {
    for (NodeId v : wcds.additional_dominators) additional[v] = true;
  }
  os << "<g>\n";
  const double r = kNodeRadiusPx;
  for (NodeId u = 0; u < points.size(); ++u) {
    const double x = m.map_x(points[u].x);
    const double y = m.map_y(points[u].y);
    if (have_wcds && additional[u]) {
      os << "<rect x=\"" << x - r << "\" y=\"" << y - r << "\" width=\""
         << 2 * r << "\" height=\"" << 2 * r
         << "\" fill=\"#c62828\" stroke=\"black\" stroke-width=\"0.5\"/>\n";
    } else if (have_wcds && wcds.mask[u]) {
      os << "<circle cx=\"" << x << "\" cy=\"" << y << "\" r=\"" << r * 1.3
         << "\" fill=\"black\"/>\n";
    } else {
      os << "<circle cx=\"" << x << "\" cy=\"" << y << "\" r=\"" << r
         << "\" fill=\"#9e9e9e\" stroke=\"#606060\" stroke-width=\"0.4\"/>\n";
    }
  }
  os << "</g>\n</svg>\n";
  if (!os) throw std::runtime_error("write_svg: stream failure");
}

void save_svg(const std::string& path, const std::vector<geom::Point>& points,
              const graph::Graph& g, const core::WcdsResult& wcds) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("save_svg: cannot open " + path);
  write_svg(os, points, g, wcds);
}

}  // namespace wcds::io
