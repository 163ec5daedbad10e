// Immutable undirected graph in compressed sparse row (CSR) form.
//
// This is the network topology substrate for the whole library: generators
// produce Graphs, the synchronous simulator routes messages along Graph
// edges, and the dominating-set algorithms read neighborhoods from it.
//
// Nodes are dense integer ids [0, n). Neighbor lists are sorted, enabling
// O(log deg) adjacency tests and deterministic iteration order (important
// for reproducibility of the distributed algorithms).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

// build_udg writes CSR rows straight into a Graph (a friend, see below).
namespace ftc::geom {
struct Point;
struct UnitDiskGraph;
UnitDiskGraph build_udg(std::vector<Point> points, double radius);
}  // namespace ftc::geom

namespace ftc::graph {

class MutableGraph;

/// Dense node identifier. Node ids are indices in [0, Graph::n()).
using NodeId = std::int32_t;

/// An undirected edge as an unordered pair (stored with u < v).
struct Edge {
  NodeId u = 0;
  NodeId v = 0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// Immutable undirected simple graph (no self-loops, no parallel edges).
class Graph {
 public:
  /// Empty graph with zero nodes.
  Graph() = default;

  /// Builds a graph on `num_nodes` nodes from an edge list in O(n + m).
  /// Duplicate edges (in either orientation) are merged. Throws
  /// std::invalid_argument on a negative `num_nodes`, an endpoint outside
  /// [0, num_nodes) or a self-loop, and std::length_error when the merged
  /// 2m exceeds the uint32 offsets.
  static Graph from_edges(NodeId num_nodes, std::span<const Edge> edges);

  /// Convenience overload taking (u, v) pairs.
  static Graph from_edges(NodeId num_nodes,
                          const std::vector<std::pair<NodeId, NodeId>>& edges);

  /// Number of nodes.
  [[nodiscard]] NodeId n() const noexcept {
    return static_cast<NodeId>(offsets_.empty() ? 0 : offsets_.size() - 1);
  }

  /// Number of undirected edges.
  [[nodiscard]] std::size_t m() const noexcept { return adjacency_.size() / 2; }

  /// Heap footprint of the CSR arrays in bytes. Offsets are stored as
  /// 32-bit indices (2m must fit in uint32; from_edges enforces this), so a
  /// degree-12 million-node topology costs ~4 MB of offsets + ~48 MB of
  /// adjacency instead of double that with size_t offsets.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return offsets_.capacity() * sizeof(std::uint32_t) +
           adjacency_.capacity() * sizeof(NodeId);
  }

  /// Degree of node v (number of neighbors, v itself not counted).
  [[nodiscard]] NodeId degree(NodeId v) const noexcept {
    return static_cast<NodeId>(offsets_[static_cast<std::size_t>(v) + 1] -
                               offsets_[static_cast<std::size_t>(v)]);
  }

  /// Sorted open neighborhood of v (v itself excluded).
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const noexcept {
    const auto begin = offsets_[static_cast<std::size_t>(v)];
    const auto end = offsets_[static_cast<std::size_t>(v) + 1];
    return {adjacency_.data() + begin, adjacency_.data() + end};
  }

  /// Index of v's first arc in the CSR adjacency: v's arcs are
  /// [arc_offset(v), arc_offset(v) + degree(v)) of the 2m arcs, so per-arc
  /// arrays can give every node a fixed, disjoint region.
  [[nodiscard]] std::uint32_t arc_offset(NodeId v) const noexcept {
    return offsets_[static_cast<std::size_t>(v)];
  }

  /// Maximum degree Δ over all nodes (0 for the empty graph).
  [[nodiscard]] NodeId max_degree() const noexcept { return max_degree_; }

  /// True iff {u, v} is an edge. O(log deg(u)).
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const noexcept;

  /// All edges, each once, with u < v, in lexicographic order.
  [[nodiscard]] std::vector<Edge> edges() const;

  /// Returns the subgraph induced by deleting `removed` nodes (the node set
  /// keeps its size; removed nodes simply become isolated). Used by the
  /// fault-injection experiments, where crashed nodes stop participating
  /// but ids must remain stable.
  [[nodiscard]] Graph without_nodes(std::span<const NodeId> removed) const;

 private:
  friend class MutableGraph;
  friend geom::UnitDiskGraph geom::build_udg(std::vector<geom::Point>, double);

  /// Adopts a finished CSR: ascending, duplicate-free rows. Computes Δ and
  /// throws std::length_error when 2m exceeds the uint32 offsets.
  Graph(std::vector<std::uint32_t> offsets, std::vector<NodeId> adjacency);

  /// Sorts neighbour rows by transposition and adopts them. Row v is
  /// rows[offsets[v], offsets[v + 1]) in any order; the arc multiset must be
  /// symmetric, with ids in [0, n) and no self-loops. Duplicates are merged.
  static Graph from_symmetric_rows(std::span<const std::size_t> offsets,
                                   std::span<const NodeId> rows);

  std::vector<std::uint32_t> offsets_;  // size n+1; offsets_[n] == 2m
  std::vector<NodeId> adjacency_;       // size 2m, sorted per node
  NodeId max_degree_ = 0;
};

}  // namespace ftc::graph
