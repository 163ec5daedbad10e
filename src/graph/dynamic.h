// Mutable adjacency companion to the immutable CSR Graph (DESIGN.md §13).
//
// Graph is deliberately immutable: the simulator and the algorithms read a
// frozen CSR. The dynamic-clustering layer needs the opposite — a topology
// that absorbs a stream of join/leave/move/flip mutations between rounds —
// so MutableGraph keeps sorted neighbor rows that support O(deg) edge
// insertion/removal while preserving Graph's invariants (simple,
// undirected, sorted neighbor lists, ids dense in [0, n)).
//
// Every row lives in one slab: a single std::vector<NodeId> plus a
// {begin, size, cap} record per node, so thawing n nodes costs one block,
// not n. A thaw lays the rows out in node order with kRowSlack free slots
// each. A row that outgrows its capacity moves to the slab's tail with
// double the capacity (or grows in place when it already ends there); the
// slots it leaves are dead. Once the slab would pass twice the footprint a
// fresh thaw needs (2m + kRowSlack·n), the next growth compacts it: every
// row is laid out again in node order with kRowSlack slack, so growth is
// amortized O(1) on top of the sorted insert.
//
// to_graph() freezes the current adjacency back into a CSR Graph by copying
// the already-sorted rows; the result is equivalent to Graph::from_edges
// over the same edge set — MutableGraph.FreezeAfterChurnMatchesFromEdgesRebuild
// and the fuzzer's dynamic.rebuild_roundtrip pin that contract.
//
// The uint32 CSR bound (2m must fit 32-bit offsets) is enforced here too,
// at mutation time, through the same predicate Graph::from_edges uses:
// csr_arcs_fit(). A mutable topology that silently outgrew the bound would
// only fail later, at an arbitrary to_graph() call. Slab indices are 32-bit
// as well, but slack and dead slots never cause a rejection: a thaw whose
// slack would not fit leaves none, and a growth that would not fit compacts
// first, dropping every row's slack if it must.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace ftc::graph {

/// True iff a topology with `directed_arcs` = 2m directed arcs fits the
/// 32-bit CSR offsets Graph uses. Shared by
/// Graph::from_edges and MutableGraph::add_edge so the static and dynamic
/// paths reject exactly the same sizes.
[[nodiscard]] bool csr_arcs_fit(std::size_t directed_arcs) noexcept;

/// Edges added/removed by one topology mutation, each once with u < v.
/// Orders are deterministic (ascending) so deltas are comparable across
/// runs and replays.
struct EdgeDelta {
  std::vector<Edge> added;
  std::vector<Edge> removed;

  [[nodiscard]] bool empty() const noexcept {
    return added.empty() && removed.empty();
  }

  friend bool operator==(const EdgeDelta&, const EdgeDelta&) = default;
};

/// Mutable simple undirected graph with sorted neighbor rows in one slab.
class MutableGraph {
 public:
  /// Free slots a thaw or a compaction leaves after each row.
  static constexpr std::uint32_t kRowSlack = 2;

  MutableGraph() = default;

  /// Thaws an immutable Graph (copies its adjacency in one pass).
  explicit MutableGraph(const Graph& g);

  [[nodiscard]] NodeId n() const noexcept {
    return static_cast<NodeId>(rows_.size());
  }

  /// Appends a new isolated node and returns its id (= previous n()).
  NodeId add_node();

  [[nodiscard]] NodeId degree(NodeId v) const noexcept {
    return static_cast<NodeId>(rows_[static_cast<std::size_t>(v)].size);
  }

  /// Sorted open neighborhood of v. Any mutation (add_node, add_edge,
  /// remove_edge, isolate) may move any row, so it invalidates every span
  /// this returned, not only v's: copy a row before mutating the graph
  /// while reading it.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const noexcept {
    const Row& r = rows_[static_cast<std::size_t>(v)];
    return {slab_.data() + r.begin, r.size};
  }

  /// True iff {u, v} is an edge. O(log deg(u)). Out-of-range ids and u == v
  /// return false (mirrors Graph::has_edge).
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const noexcept;

  /// Inserts {u, v}. Returns false (no-op) when the edge already exists or
  /// u == v. Throws std::length_error when the insertion would push 2m past
  /// the uint32 CSR bound. Precondition: ids in [0, n).
  bool add_edge(NodeId u, NodeId v);

  /// Removes {u, v}. Returns false (no-op) when the edge is absent.
  bool remove_edge(NodeId u, NodeId v);

  /// Removes every edge incident to v and appends them to `out` (u < v,
  /// ascending by the far endpoint), growing `out` by one exact reserve.
  /// The node keeps its id — the same isolated-node convention as
  /// Graph::without_nodes.
  void isolate(NodeId v, std::vector<Edge>& out);

  /// Directed arc count 2m.
  [[nodiscard]] std::size_t arcs() const noexcept { return arcs_; }

  /// Undirected edge count.
  [[nodiscard]] std::size_t m() const noexcept { return arcs_ / 2; }

  /// All edges, each once with u < v, in lexicographic order.
  [[nodiscard]] std::vector<Edge> edges() const;

  /// Freezes the current adjacency into an immutable CSR Graph. The result
  /// is identical to Graph::from_edges(n(), edges()).
  [[nodiscard]] Graph to_graph() const;

  /// Slots the slab spans: every row's capacity plus the dead slots that
  /// relocated rows left behind. Right after a thaw or a compaction it is
  /// at most arcs() + kRowSlack * n() (when that fits 32-bit indices); a
  /// growth that would take it past twice that compacts instead.
  [[nodiscard]] std::size_t slab_size() const noexcept { return slab_.size(); }

 private:
  /// Row v is slab_[begin, begin + size), sorted; slots up to begin + cap
  /// are its free capacity.
  struct Row {
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
    std::uint32_t cap = 0;
  };

  /// Makes room in v's row for one more neighbor: moves it to the tail
  /// with double the capacity, or compacts the slab (see file header).
  void grow(NodeId v);
  /// Lays every row out again in node order with kRowSlack slack (none at
  /// all, apart from one slot for `v`, if that would pass 32-bit indices).
  void compact(NodeId v);
  /// Inserts w at index i of x's sorted row, growing it if full.
  void insert(NodeId x, std::size_t i, NodeId w);
  /// Removes the present neighbor w from x's row (no row moves).
  void erase(NodeId x, NodeId w);

  std::vector<Row> rows_;
  std::vector<NodeId> slab_;
  std::size_t arcs_ = 0;  ///< 2m, maintained incrementally
};

}  // namespace ftc::graph
