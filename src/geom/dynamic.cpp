#include "geom/dynamic.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace ftc::geom {

using graph::EdgeDelta;
using graph::NodeId;

DynamicUdg::DynamicUdg(const UnitDiskGraph& udg)
    : g_(udg.graph),
      pos_(udg.positions),
      active_(static_cast<std::size_t>(udg.n()), 1),
      radius_(udg.radius) {
  assert(radius_ > 0.0);
  cells_.reserve(static_cast<std::size_t>(udg.n()));
  for (NodeId v = 0; v < n(); ++v) grid_insert(v);
}

namespace {

/// Cell index of one coordinate, clamped to ±2^62 so the cast and the ±1
/// neighbour offsets in in_range cannot overflow. The clamp is monotone and
/// non-expansive, so two points within one radius still land in the same
/// or adjacent cells; far outliers merely share the boundary cell.
std::int64_t cell_index(double coord, double radius) noexcept {
  constexpr double kLimit = 0x1p62;
  return static_cast<std::int64_t>(
      std::clamp(std::floor(coord / radius), -kLimit, kLimit));
}

void require_finite(const char* op, const Point& p) {
  if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
    throw std::invalid_argument(std::string("DynamicUdg::") + op +
                                ": non-finite coordinate");
  }
}

}  // namespace

DynamicUdg::CellKey DynamicUdg::cell_of(const Point& p) const noexcept {
  return {cell_index(p.x, radius_), cell_index(p.y, radius_)};
}

void DynamicUdg::grid_insert(NodeId v) {
  cells_[cell_of(pos_[static_cast<std::size_t>(v)])].push_back(v);
}

void DynamicUdg::grid_erase(NodeId v) {
  const auto it = cells_.find(cell_of(pos_[static_cast<std::size_t>(v)]));
  assert(it != cells_.end());
  auto& bucket = it->second;
  bucket.erase(std::find(bucket.begin(), bucket.end(), v));
  if (bucket.empty()) cells_.erase(it);
}

std::vector<NodeId> DynamicUdg::in_range(const Point& p,
                                         NodeId exclude) const {
  std::vector<NodeId> out;
  const CellKey base = cell_of(p);
  const double r_sq = radius_ * radius_;
  for (std::int64_t dx = -1; dx <= 1; ++dx) {
    for (std::int64_t dy = -1; dy <= 1; ++dy) {
      const auto it = cells_.find({base.cx + dx, base.cy + dy});
      if (it == cells_.end()) continue;
      for (NodeId w : it->second) {
        if (w == exclude) continue;
        if (dist_sq(p, pos_[static_cast<std::size_t>(w)]) <= r_sq) {
          out.push_back(w);
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

NodeId DynamicUdg::node_join(Point p, EdgeDelta& delta) {
  require_finite("node_join", p);
  const NodeId v = g_.add_node();
  pos_.push_back(p);
  active_.push_back(1);
  for (NodeId w : in_range(p, v)) {
    g_.add_edge(v, w);
    delta.added.push_back(w < v ? graph::Edge{w, v} : graph::Edge{v, w});
  }
  grid_insert(v);
  return v;
}

void DynamicUdg::node_leave(NodeId v, EdgeDelta& delta) {
  if (!active(v)) return;
  grid_erase(v);
  active_[static_cast<std::size_t>(v)] = 0;
  auto removed = g_.isolate(v);
  delta.removed.insert(delta.removed.end(), removed.begin(), removed.end());
}

void DynamicUdg::node_move(NodeId v, Point p, EdgeDelta& delta) {
  require_finite("node_move", p);
  if (!active(v)) return;
  grid_erase(v);
  pos_[static_cast<std::size_t>(v)] = p;
  grid_insert(v);
  const std::vector<NodeId> now = in_range(p, v);
  // Diff against the current (sorted) adjacency; both lists ascending.
  const auto old_span = g_.neighbors(v);
  const std::vector<NodeId> old(old_span.begin(), old_span.end());
  auto make = [v](NodeId w) {
    return w < v ? graph::Edge{w, v} : graph::Edge{v, w};
  };
  for (NodeId w : old) {
    if (!std::binary_search(now.begin(), now.end(), w)) {
      g_.remove_edge(v, w);
      delta.removed.push_back(make(w));
    }
  }
  for (NodeId w : now) {
    if (g_.add_edge(v, w)) delta.added.push_back(make(w));
  }
}

UnitDiskGraph DynamicUdg::to_udg() const {
  UnitDiskGraph udg;
  udg.graph = g_.to_graph();
  udg.positions = pos_;
  udg.radius = radius_;
  return udg;
}

}  // namespace ftc::geom
