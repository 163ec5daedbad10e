// Incrementally maintained unit disk graph (DESIGN.md §13).
//
// build_udg() computes a UDG from scratch over a flat grid fitted to the
// bounding box. The dynamic-clustering layer mutates the deployment one node
// at a time — joins, departures, waypoint moves — and rebuilding the whole
// topology per mutation would cost O(n + m). A join can land anywhere in the
// plane, so DynamicUdg keeps its own unbounded grid (cells of side `radius`,
// 3x3 neighbor-cell scans) live across mutations, and each mutation touches
// only the mutated node's geometric neighborhood: expected O(local density)
// per operation for bounded densities.
//
// The grid is an open-addressing table of {cell key, list head} slots
// (linear probing, power-of-two capacity, load <= 1/2), sized once at
// construction from the initial cells. Each cell's nodes form an intrusive
// doubly linked list through per-node next/prev arrays, so a grid insert or
// erase is O(1) and allocates nothing. A slot whose list empties stays in
// place until the next rehash drops it. Range queries fill a reused scratch
// vector, so a leave or a move allocates only the exact reserves of its
// edge delta (and, rarely, the adjacency slab when it grows or compacts).
//
// Conventions shared with the rest of the repo:
//   - Departed nodes keep their id and become isolated (the
//     Graph::without_nodes / crash convention); ids are never reused.
//   - Joins append a fresh id at the end.
//   - The maintained adjacency is exactly { {u,v} : active(u) && active(v)
//     && dist(u,v) <= radius } — the brute-force rebuild equivalence the
//     DynamicOracle checks case by case.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "geom/point.h"
#include "geom/udg.h"
#include "graph/dynamic.h"

namespace ftc::geom {

/// A UDG that absorbs node_join/node_leave/node_move mutations, updating
/// edges incrementally via a persistent spatial cell table.
class DynamicUdg {
 public:
  /// Starts from a built deployment; all nodes begin active.
  explicit DynamicUdg(const UnitDiskGraph& udg);

  /// Current adjacency (only active-active edges, by construction).
  [[nodiscard]] const graph::MutableGraph& graph() const noexcept {
    return g_;
  }

  [[nodiscard]] graph::NodeId n() const noexcept { return g_.n(); }

  [[nodiscard]] bool active(graph::NodeId v) const noexcept {
    return v >= 0 && v < n() && active_[static_cast<std::size_t>(v)] != 0;
  }

  /// One byte per node, 1 = active. Indexed by NodeId.
  [[nodiscard]] const std::vector<std::uint8_t>& active_flags() const noexcept {
    return active_;
  }

  [[nodiscard]] const std::vector<Point>& positions() const noexcept {
    return pos_;
  }

  [[nodiscard]] double radius() const noexcept { return radius_; }

  /// Adds a node at p, links it to every active node within radius, and
  /// returns its id. All new edges land in `delta.added`. Throws
  /// std::invalid_argument, changing nothing, if p is not finite.
  graph::NodeId node_join(Point p, graph::EdgeDelta& delta);

  /// Deactivates v and removes its incident edges (into `delta.removed`).
  /// No-op on an already-inactive or out-of-range id.
  void node_leave(graph::NodeId v, graph::EdgeDelta& delta);

  /// Moves v to p and rewrites its incident edges to match the new
  /// position: edges to nodes that fell out of range land in
  /// `delta.removed`, newly in-range nodes in `delta.added`. No-op on an
  /// inactive or out-of-range id. Throws std::invalid_argument, changing
  /// nothing, if p is not finite.
  void node_move(graph::NodeId v, Point p, graph::EdgeDelta& delta);

 private:
  struct CellKey {
    std::int64_t cx;
    std::int64_t cy;
    bool operator==(const CellKey&) const = default;
  };
  /// Key of a never-used slot; cell indices are clamped to ±2^62, so no
  /// real cell has it.
  static constexpr std::int64_t kFreeSlot =
      std::numeric_limits<std::int64_t>::min();
  /// One cell-table slot. A used slot whose list emptied keeps its key with
  /// head == -1 until the next rehash drops it.
  struct Slot {
    CellKey key{kFreeSlot, kFreeSlot};
    graph::NodeId head = -1;
  };

  [[nodiscard]] CellKey cell_of(const Point& p) const noexcept;
  /// Slot holding `key`, or the free slot where it would go.
  [[nodiscard]] std::size_t probe(const CellKey& key) const noexcept;
  /// Rebuilds the table at `capacity` (a power of two) from the live cells.
  void rehash(std::size_t capacity);
  void grid_insert(graph::NodeId v);
  void grid_erase(graph::NodeId v);
  /// Fills near_ with the active nodes (other than `exclude`) within radius
  /// of p, ascending id.
  void in_range(const Point& p, graph::NodeId exclude);

  graph::MutableGraph g_;
  std::vector<Point> pos_;
  std::vector<std::uint8_t> active_;
  double radius_ = 1.0;
  std::vector<Slot> slots_;  ///< power-of-two size
  std::size_t used_ = 0;     ///< slots ever keyed since the last rehash
  std::vector<graph::NodeId> next_;  ///< cell-list links, -1 = none
  std::vector<graph::NodeId> prev_;
  std::vector<graph::NodeId> near_;  ///< in_range scratch
};

}  // namespace ftc::geom
