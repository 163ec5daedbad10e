#include "geom/dynamic.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

namespace ftc::geom {

using graph::EdgeDelta;
using graph::NodeId;

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

/// splitmix64 finalizer over the two cell indices; the low bits index the
/// table, so they must depend on every input bit.
std::uint64_t cell_hash(std::int64_t cx, std::int64_t cy) noexcept {
  std::uint64_t z = static_cast<std::uint64_t>(cx) * 0x9E3779B97F4A7C15ULL ^
                    static_cast<std::uint64_t>(cy);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Walks two ascending id lists and reports the ids only in `a` and the
/// ids only in `b`, each in ascending order.
template <class OnlyA, class OnlyB>
void diff_sorted(std::span<const NodeId> a, std::span<const NodeId> b,
                 OnlyA&& only_a, OnlyB&& only_b) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() || j < b.size()) {
    if (j == b.size() || (i < a.size() && a[i] < b[j])) {
      only_a(a[i++]);
    } else if (i == a.size() || b[j] < a[i]) {
      only_b(b[j++]);
    } else {
      ++i;
      ++j;
    }
  }
}

}  // namespace

DynamicUdg::DynamicUdg(const UnitDiskGraph& udg)
    : g_(udg.graph),
      pos_(udg.positions),
      active_(static_cast<std::size_t>(udg.n()), 1),
      radius_(udg.radius),
      next_(static_cast<std::size_t>(udg.n()), -1),
      prev_(static_cast<std::size_t>(udg.n()), -1) {
  assert(radius_ > 0.0);
  // Size the table once for the initial cells: at most one per node and at
  // most the bounding box's cell count. Growing it from a small table
  // instead fragments the heap for the rest of the run. cell_index is
  // monotone in its coordinate, so the box's corner cells are the cells of
  // the coordinate extremes, and each node's cell is computed only once,
  // by grid_insert.
  double cells = 0.0;
  if (!pos_.empty()) {
    Point lo = pos_.front();
    Point hi = lo;
    for (const Point& p : pos_) {
      lo = {std::min(lo.x, p.x), std::min(lo.y, p.y)};
      hi = {std::max(hi.x, p.x), std::max(hi.y, p.y)};
    }
    const CellKey clo = cell_of(lo);
    const CellKey chi = cell_of(hi);
    cells = std::min(
        static_cast<double>(pos_.size()),
        (static_cast<double>(chi.cx) - static_cast<double>(clo.cx) + 1.0) *
            (static_cast<double>(chi.cy) - static_cast<double>(clo.cy) + 1.0));
  }
  rehash(std::bit_ceil(std::max<std::size_t>(
      16, 2 * static_cast<std::size_t>(cells))));
  for (NodeId v = 0; v < n(); ++v) grid_insert(v);
}

DynamicUdg::CellKey DynamicUdg::cell_of(const Point& p) const noexcept {
  return {cell_index(p.x, radius_), cell_index(p.y, radius_)};
}

std::size_t DynamicUdg::probe(const CellKey& key) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  auto i = static_cast<std::size_t>(cell_hash(key.cx, key.cy)) & mask;
  while (slots_[i].key.cx != kFreeSlot && slots_[i].key != key) {
    i = (i + 1) & mask;
  }
  return i;
}

void DynamicUdg::rehash(std::size_t capacity) {
  const std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{});
  used_ = 0;
  for (const Slot& s : old) {
    if (s.head < 0) continue;  // never used, or its list emptied
    slots_[probe(s.key)] = s;
    ++used_;
  }
}

void DynamicUdg::grid_insert(NodeId v) {
  const auto vi = static_cast<std::size_t>(v);
  const CellKey key = cell_of(pos_[vi]);
  std::size_t i = probe(key);
  if (slots_[i].key.cx == kFreeSlot) {
    // Keying a new slot: keep the load at most 1/2. A rehash drops emptied
    // slots first and doubles only while live cells fill a quarter.
    if (2 * (used_ + 1) > slots_.size()) {
      const auto live = static_cast<std::size_t>(std::count_if(
          slots_.begin(), slots_.end(), [](const Slot& s) { return s.head >= 0; }));
      std::size_t capacity = slots_.size();
      while (4 * (live + 1) > capacity) capacity *= 2;
      rehash(capacity);
      i = probe(key);
    }
    slots_[i].key = key;
    ++used_;
  }
  NodeId& head = slots_[i].head;
  next_[vi] = head;
  prev_[vi] = -1;
  if (head >= 0) prev_[static_cast<std::size_t>(head)] = v;
  head = v;
}

void DynamicUdg::grid_erase(NodeId v) {
  const auto vi = static_cast<std::size_t>(v);
  const NodeId next = next_[vi];
  const NodeId prev = prev_[vi];
  if (prev >= 0) {
    next_[static_cast<std::size_t>(prev)] = next;
  } else {
    Slot& slot = slots_[probe(cell_of(pos_[vi]))];
    assert(slot.head == v);
    slot.head = next;
  }
  if (next >= 0) prev_[static_cast<std::size_t>(next)] = prev;
}

void DynamicUdg::in_range(const Point& p, NodeId exclude) {
  near_.clear();
  const CellKey base = cell_of(p);
  const double r_sq = radius_ * radius_;
  for (std::int64_t dx = -1; dx <= 1; ++dx) {
    for (std::int64_t dy = -1; dy <= 1; ++dy) {
      const Slot& slot = slots_[probe({base.cx + dx, base.cy + dy})];
      for (NodeId w = slot.head; w >= 0; w = next_[static_cast<std::size_t>(w)]) {
        if (w == exclude) continue;
        if (dist_sq(p, pos_[static_cast<std::size_t>(w)]) <= r_sq) {
          near_.push_back(w);
        }
      }
    }
  }
  std::sort(near_.begin(), near_.end());
}

NodeId DynamicUdg::node_join(Point p, EdgeDelta& delta) {
  require_finite("node_join", p);
  const NodeId v = g_.add_node();
  pos_.push_back(p);
  active_.push_back(1);
  next_.push_back(-1);
  prev_.push_back(-1);
  in_range(p, v);
  delta.added.reserve(delta.added.size() + near_.size());
  for (NodeId w : near_) {  // every w < v: v is the newest id
    g_.add_edge(v, w);
    delta.added.push_back({w, v});
  }
  grid_insert(v);
  return v;
}

void DynamicUdg::node_leave(NodeId v, EdgeDelta& delta) {
  if (!active(v)) return;
  grid_erase(v);
  active_[static_cast<std::size_t>(v)] = 0;
  g_.isolate(v, delta.removed);
}

void DynamicUdg::node_move(NodeId v, Point p, EdgeDelta& delta) {
  require_finite("node_move", p);
  if (!active(v)) return;
  grid_erase(v);
  pos_[static_cast<std::size_t>(v)] = p;
  grid_insert(v);
  in_range(p, v);
  // Diff the current (sorted) adjacency against near_: count, reserve each
  // side of the delta once, fill it, then edit the graph from the delta.
  // `old` is read only before the first edit, which may move any row.
  const std::span<const NodeId> old = g_.neighbors(v);
  std::size_t gone = 0;
  std::size_t fresh = 0;
  diff_sorted(old, near_, [&](NodeId) { ++gone; }, [&](NodeId) { ++fresh; });
  const std::size_t removed_from = delta.removed.size();
  const std::size_t added_from = delta.added.size();
  delta.removed.reserve(removed_from + gone);
  delta.added.reserve(added_from + fresh);
  auto make = [v](NodeId w) {
    return w < v ? graph::Edge{w, v} : graph::Edge{v, w};
  };
  diff_sorted(
      old, near_, [&](NodeId w) { delta.removed.push_back(make(w)); },
      [&](NodeId w) { delta.added.push_back(make(w)); });
  for (std::size_t i = removed_from; i < delta.removed.size(); ++i) {
    g_.remove_edge(delta.removed[i].u, delta.removed[i].v);
  }
  for (std::size_t i = added_from; i < delta.added.size(); ++i) {
    g_.add_edge(delta.added[i].u, delta.added[i].v);
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
