#include "geom/udg.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <numbers>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

namespace ftc::geom {

using graph::Edge;
using graph::NodeId;

UnitDiskGraph build_udg(std::vector<Point> points, double radius) {
  if (!(radius > 0.0) || !std::isfinite(radius)) {
    throw std::invalid_argument("build_udg: radius must be finite and > 0");
  }
  if (points.size() >
      static_cast<std::size_t>(std::numeric_limits<NodeId>::max())) {
    throw std::invalid_argument("build_udg: more points than NodeId holds");
  }
  const std::size_t n = points.size();
  Point lo = n == 0 ? Point{} : points[0];
  Point hi = lo;
  for (std::size_t v = 0; v < n; ++v) {
    const Point p = points[v];
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
      throw std::invalid_argument("build_udg: non-finite coordinate at node " +
                                  std::to_string(v));
    }
    lo = {std::min(lo.x, p.x), std::min(lo.y, p.y)};
    hi = {std::max(hi.x, p.x), std::max(hi.y, p.y)};
  }

  // Flat grid over the bounding box. The cell side starts just above
  // max(radius, 2^-510): a pair the edge test accepts is no farther apart on
  // either axis, rounding included (radius² underflows below 2^-511), so it
  // lies in 3x3 neighbouring cells. If radius² overflows, every pair is
  // accepted and one infinite cell holds all. The side doubles until there
  // are at most 2n + 1 cells. All of it is computed in double, on halved
  // coordinates so that x/2 - lo/2 cannot overflow. The cell index is
  // monotone in x and the largest coordinate maps to the last cell by
  // construction; the clamp, monotone and non-expansive, keeps any index in
  // range without splitting a neighbouring pair further apart.
  const double r_sq = radius * radius;
  double half_side = std::isinf(r_sq)
                         ? std::numeric_limits<double>::infinity()
                         : std::max(radius, 0x1p-510) * (1.0 + 0x1p-10) * 0.5;
  const auto cells_along = [&](double x, double low) {
    return std::floor((x * 0.5 - low * 0.5) / half_side) + 1.0;
  };
  while (!(cells_along(hi.x, lo.x) * cells_along(hi.y, lo.y) <=
           2.0 * static_cast<double>(n) + 1.0)) {
    half_side *= 2.0;
  }
  const double w_cells = cells_along(hi.x, lo.x);
  const double h_cells = cells_along(hi.y, lo.y);
  const auto cell_of = [&](const Point& p) {
    const double cx = std::min(cells_along(p.x, lo.x), w_cells) - 1.0;
    const double cy = std::min(cells_along(p.y, lo.y), h_cells) - 1.0;
    return static_cast<std::size_t>(cy * w_cells + cx);
  };
  const auto w = static_cast<std::size_t>(w_cells);
  const auto h = static_cast<std::size_t>(h_cells);

  // Counting sort into row-major cells; ids and points in cell order.
  std::vector<std::uint32_t> cell(n);
  std::vector<std::uint32_t> start(w * h + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    cell[v] = static_cast<std::uint32_t>(cell_of(points[v]));
    ++start[cell[v] + 1];
  }
  for (std::size_t c = 1; c < start.size(); ++c) start[c] += start[c - 1];
  std::vector<NodeId> ids(n);
  std::vector<Point> pts(n);
  {
    std::vector<std::uint32_t> cursor(start.begin(), start.end() - 1);
    for (std::size_t v = 0; v < n; ++v) {
      const std::uint32_t at = cursor[cell[v]]++;
      ids[at] = static_cast<NodeId>(v);
      pts[at] = points[v];
    }
  }

  // Row v lists every other node within radius. The 3x3 block is three
  // contiguous ranges of cells, and each candidate is written and kept or
  // overwritten without a branch.
  std::vector<std::size_t> offsets(n + 1, 0);
  std::vector<NodeId> rows;
  std::size_t used = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t cx = cell[v] % w;
    const std::size_t cy = cell[v] / w;
    const std::size_t x0 = cx - (cx > 0 ? 1 : 0);
    const std::size_t x1 = cx + (cx + 1 < w ? 1 : 0);
    const std::size_t y0 = cy - (cy > 0 ? 1 : 0);
    const std::size_t y1 = cy + (cy + 1 < h ? 1 : 0);
    std::size_t need = 0;
    for (std::size_t y = y0; y <= y1; ++y) {
      need += start[y * w + x1 + 1] - start[y * w + x0];
    }
    if (rows.size() < used + need) {
      rows.resize(std::max(2 * rows.size(), used + need));
    }
    NodeId* out = rows.data() + used;
    const Point pv = points[v];
    const auto self = static_cast<NodeId>(v);
    for (std::size_t y = y0; y <= y1; ++y) {
      for (std::size_t j = start[y * w + x0]; j < start[y * w + x1 + 1]; ++j) {
        *out = ids[j];
        out += (dist_sq(pv, pts[j]) <= r_sq) & (ids[j] != self);
      }
    }
    used = static_cast<std::size_t>(out - rows.data());
    offsets[v + 1] = used;
  }

  UnitDiskGraph udg;
  udg.graph = graph::Graph::from_symmetric_rows(
      offsets, std::span<const NodeId>(rows.data(), used));
  udg.positions = std::move(points);
  udg.radius = radius;
  return udg;
}

std::vector<Point> uniform_points(NodeId n, double side, util::Rng& rng) {
  assert(n >= 0 && side > 0.0);
  std::vector<Point> points;
  points.reserve(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    points.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  }
  return points;
}

std::vector<Point> clustered_points(NodeId n, NodeId clusters, double side,
                                    double stddev, util::Rng& rng) {
  assert(n >= 0 && clusters >= 1 && side > 0.0 && stddev >= 0.0);
  std::vector<Point> centers;
  centers.reserve(static_cast<std::size_t>(clusters));
  for (NodeId c = 0; c < clusters; ++c) {
    centers.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  }
  std::vector<Point> points;
  points.reserve(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    const Point& c = centers[static_cast<std::size_t>(v % clusters)];
    Point p{c.x + stddev * rng.normal(), c.y + stddev * rng.normal()};
    p.x = std::clamp(p.x, 0.0, side);
    p.y = std::clamp(p.y, 0.0, side);
    points.push_back(p);
  }
  return points;
}

std::vector<Point> perturbed_grid_points(NodeId n, double side, double jitter,
                                         util::Rng& rng) {
  assert(n >= 0 && side > 0.0 && jitter >= 0.0);
  const auto k = static_cast<NodeId>(std::floor(std::sqrt(static_cast<double>(n))));
  std::vector<Point> points;
  if (k == 0) return points;
  const double step = side / static_cast<double>(k);
  points.reserve(static_cast<std::size_t>(k) * static_cast<std::size_t>(k));
  for (NodeId r = 0; r < k; ++r) {
    for (NodeId c = 0; c < k; ++c) {
      Point p{(static_cast<double>(c) + 0.5) * step +
                  rng.uniform(-jitter, jitter),
              (static_cast<double>(r) + 0.5) * step +
                  rng.uniform(-jitter, jitter)};
      p.x = std::clamp(p.x, 0.0, side);
      p.y = std::clamp(p.y, 0.0, side);
      points.push_back(p);
    }
  }
  return points;
}

void save_udg(const std::string& path, const UnitDiskGraph& udg) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("save_udg: cannot open " + path);
  out.precision(17);
  out << udg.n() << ' ' << udg.radius << '\n';
  for (const Point& p : udg.positions) {
    out << p.x << ' ' << p.y << '\n';
  }
  if (!out) throw std::runtime_error("save_udg: write failed " + path);
}

UnitDiskGraph load_udg(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_udg: cannot open " + path);
  long long n = 0;
  double radius = 0.0;
  if (!(in >> n >> radius) || n < 0 ||
      n > std::numeric_limits<NodeId>::max() || radius <= 0.0) {
    throw std::runtime_error("load_udg: bad header in " + path);
  }
  std::vector<Point> points;
  // The header is untrusted: grow with the file, not with the claimed n.
  points.reserve(static_cast<std::size_t>(std::min(n, 1LL << 16)));
  for (long long i = 0; i < n; ++i) {
    Point p;
    if (!(in >> p.x >> p.y)) {
      throw std::runtime_error("load_udg: truncated point list in " + path);
    }
    points.push_back(p);
  }
  try {
    return build_udg(std::move(points), radius);
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error("load_udg: " + std::string(e.what()) + " in " +
                             path);
  }
}

graph::Graph quasi_udg(const UnitDiskGraph& udg, double sever,
                       double reflect_per_node, util::Rng& rng) {
  assert(sever >= 0.0 && sever <= 1.0);
  assert(reflect_per_node >= 0.0);
  std::vector<Edge> edges;
  for (const Edge& e : udg.graph.edges()) {
    if (!rng.bernoulli(sever)) edges.push_back(e);
  }
  const auto extra = static_cast<std::size_t>(
      reflect_per_node * static_cast<double>(udg.n()));
  for (std::size_t i = 0; i < extra; ++i) {
    const auto u =
        static_cast<NodeId>(rng.index(static_cast<std::size_t>(udg.n())));
    const auto v =
        static_cast<NodeId>(rng.index(static_cast<std::size_t>(udg.n())));
    if (u != v) edges.push_back({u, v});
  }
  return graph::Graph::from_edges(udg.n(), edges);
}

UnitDiskGraph uniform_udg_with_degree(NodeId n, double target_avg_degree,
                                      util::Rng& rng) {
  assert(n > 0 && target_avg_degree > 0.0);
  // Expected degree of a node in a uniform deployment of density ρ with
  // radius 1 is ρ·π (ignoring boundary effects). Choose the square side so
  // that ρ = n / side² gives the target.
  const double density = target_avg_degree / std::numbers::pi;
  const double side = std::sqrt(static_cast<double>(n) / density);
  return build_udg(uniform_points(n, side, rng), 1.0);
}

}  // namespace ftc::geom
