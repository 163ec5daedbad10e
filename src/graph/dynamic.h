// Mutable adjacency companion to the immutable CSR Graph (DESIGN.md §13).
//
// Graph is deliberately immutable: the simulator and the algorithms read a
// frozen CSR. The dynamic-clustering layer needs the opposite — a topology
// that absorbs a stream of join/leave/move/flip mutations between rounds —
// so MutableGraph keeps per-node sorted neighbor vectors that support
// O(deg) edge insertion/removal while preserving Graph's invariants
// (simple, undirected, sorted neighbor lists, ids dense in [0, n)).
//
// to_graph() freezes the current adjacency back into a CSR Graph by adopting
// the already-sorted rows; the result is equivalent to Graph::from_edges over
// the same edge set — MutableGraph.FreezeAfterChurnMatchesFromEdgesRebuild
// and the fuzzer's dynamic.rebuild_roundtrip pin that contract.
//
// The uint32 CSR bound (2m must fit 32-bit offsets) is enforced here too,
// at mutation time, through the same predicate Graph::from_edges uses:
// csr_arcs_fit(). A mutable topology that silently outgrew the bound would
// only fail later, at an arbitrary to_graph() call.
#pragma once

#include <cstddef>
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

/// Mutable simple undirected graph with sorted per-node neighbor vectors.
class MutableGraph {
 public:
  MutableGraph() = default;

  /// Thaws an immutable Graph (copies its adjacency).
  explicit MutableGraph(const Graph& g);

  [[nodiscard]] NodeId n() const noexcept {
    return static_cast<NodeId>(adj_.size());
  }

  /// Appends a new isolated node and returns its id (= previous n()).
  NodeId add_node();

  [[nodiscard]] NodeId degree(NodeId v) const noexcept {
    return static_cast<NodeId>(adj_[static_cast<std::size_t>(v)].size());
  }

  /// Sorted open neighborhood of v. Invalidated by any mutation of v.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const noexcept {
    const auto& nbrs = adj_[static_cast<std::size_t>(v)];
    return {nbrs.data(), nbrs.size()};
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

 private:
  std::vector<std::vector<NodeId>> adj_;
  std::size_t arcs_ = 0;  ///< 2m, maintained incrementally
};

}  // namespace ftc::graph
