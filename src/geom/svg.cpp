#include "geom/svg.h"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <stdexcept>

namespace ftc::geom {

using graph::NodeId;

namespace {

constexpr double kCanvasPx = 800.0;  ///< width = height of the drawing area
constexpr double kMarginPx = 20.0;   ///< border around the deployment
constexpr const char* kNodeColor = "#b0b0b0";
constexpr double kNodeRadius = 1.8;

}  // namespace

void write_svg(std::ostream& os, const UnitDiskGraph& udg,
               std::span<const SvgLayer> layers) {
  // Bounding box of the deployment.
  double min_x = 0.0, min_y = 0.0, max_x = 1.0, max_y = 1.0;
  if (!udg.positions.empty()) {
    min_x = max_x = udg.positions.front().x;
    min_y = max_y = udg.positions.front().y;
    for (const Point& p : udg.positions) {
      min_x = std::min(min_x, p.x);
      max_x = std::max(max_x, p.x);
      min_y = std::min(min_y, p.y);
      max_y = std::max(max_y, p.y);
    }
  }
  const double span = std::max({max_x - min_x, max_y - min_y, 1e-9});
  const double scale = (kCanvasPx - 2.0 * kMarginPx) / span;
  const double total = kCanvasPx;
  auto px = [&](const Point& p) {
    return Point{kMarginPx + (p.x - min_x) * scale,
                 // Flip y: SVG's origin is top-left.
                 total - kMarginPx - (p.y - min_y) * scale};
  };

  os << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << total
     << "\" height=\"" << total << "\" viewBox=\"0 0 " << total << ' '
     << total << "\">\n";
  os << "  <rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";

  os << "  <g stroke=\"#e0e0e0\" stroke-width=\"0.6\">\n";
  for (const graph::Edge& e : udg.graph.edges()) {
    const Point a = px(udg.positions[static_cast<std::size_t>(e.u)]);
    const Point b = px(udg.positions[static_cast<std::size_t>(e.v)]);
    os << "    <line x1=\"" << a.x << "\" y1=\"" << a.y << "\" x2=\""
       << b.x << "\" y2=\"" << b.y << "\"/>\n";
  }
  os << "  </g>\n";

  os << "  <g fill=\"" << kNodeColor << "\">\n";
  for (const Point& p : udg.positions) {
    const Point c = px(p);
    os << "    <circle cx=\"" << c.x << "\" cy=\"" << c.y << "\" r=\""
       << kNodeRadius << "\"/>\n";
  }
  os << "  </g>\n";

  for (const SvgLayer& layer : layers) {
    os << "  <g fill=\"" << layer.color << "\">\n";
    for (NodeId v : layer.nodes) {
      const Point c = px(udg.positions[static_cast<std::size_t>(v)]);
      os << "    <circle cx=\"" << c.x << "\" cy=\"" << c.y << "\" r=\""
         << layer.radius << "\"/>\n";
    }
    os << "  </g>\n";
  }

  // Legend.
  double legend_y = kMarginPx;
  for (const SvgLayer& layer : layers) {
    if (layer.label.empty()) continue;
    os << "  <circle cx=\"" << kMarginPx << "\" cy=\"" << legend_y
       << "\" r=\"5\" fill=\"" << layer.color << "\"/>\n";
    os << "  <text x=\"" << kMarginPx + 10 << "\" y=\""
       << legend_y + 4 << "\" font-family=\"sans-serif\" font-size=\"12\">"
       << layer.label << "</text>\n";
    legend_y += 18.0;
  }

  os << "</svg>\n";
}

void save_svg(const std::string& path, const UnitDiskGraph& udg,
              std::span<const SvgLayer> layers) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("save_svg: cannot open " + path);
  write_svg(out, udg, layers);
  if (!out) throw std::runtime_error("save_svg: write failed " + path);
}

}  // namespace ftc::geom
