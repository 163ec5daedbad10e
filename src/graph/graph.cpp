#include "graph/graph.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>

#include "graph/dynamic.h"

namespace ftc::graph {

Graph::Graph(std::vector<std::uint32_t> offsets, std::vector<NodeId> adjacency)
    : offsets_(std::move(offsets)), adjacency_(std::move(adjacency)) {
  // Offsets are uint32: 2m (the directed arc count) must fit. Unconditional
  // — a graph past this bound would silently corrupt the CSR otherwise. The
  // predicate is shared with MutableGraph so the dynamic path rejects the
  // same sizes.
  if (!csr_arcs_fit(adjacency_.size())) {
    throw std::length_error("Graph: 2m exceeds uint32 offsets");
  }
  for (std::size_t v = 0; v + 1 < offsets_.size(); ++v) {
    max_degree_ = std::max(max_degree_,
                           static_cast<NodeId>(offsets_[v + 1] - offsets_[v]));
  }
}

Graph Graph::from_symmetric_rows(std::span<const std::size_t> offsets,
                                 std::span<const NodeId> rows) {
  const std::size_t n = offsets.size() - 1;
  // Transposition: appending each source v, in ascending v, to the rows of
  // its neighbours leaves every row ascending. The arc multiset is
  // symmetric, so row w receives exactly w's own neighbours, duplicates
  // adjacent, and the row bounds are unchanged.
  std::vector<NodeId> sorted(rows.size());
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      const auto w = static_cast<std::size_t>(rows[i]);
      assert(cursor[w] < offsets[w + 1] && "rows are not symmetric");
      sorted[cursor[w]++] = static_cast<NodeId>(v);
    }
  }
  // Compact away the adjacent duplicates. Offsets past 2^32 wrap here, but
  // the adopting constructor rejects such a graph before it is used.
  std::vector<std::uint32_t> csr(n + 1, 0);
  std::size_t kept = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t row = kept;
    for (std::size_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      if (kept == row || sorted[kept - 1] != sorted[i]) {
        sorted[kept++] = sorted[i];
      }
    }
    csr[v + 1] = static_cast<std::uint32_t>(kept);
  }
  if (kept == sorted.size()) return Graph(std::move(csr), std::move(sorted));
  return Graph(std::move(csr), std::vector<NodeId>(sorted.begin(),
                                                   sorted.begin() + kept));
}

Graph Graph::from_edges(NodeId num_nodes, std::span<const Edge> edges) {
  if (num_nodes < 0) {
    throw std::invalid_argument("Graph::from_edges: negative node count");
  }
  const auto n = static_cast<std::size_t>(num_nodes);
  // Counting sort of the arcs (both orientations) by source.
  std::vector<std::size_t> offsets(n + 1, 0);
  for (const Edge& e : edges) {
    if (e.u < 0 || e.u >= num_nodes || e.v < 0 || e.v >= num_nodes) {
      throw std::invalid_argument(
          "Graph::from_edges: edge (" + std::to_string(e.u) + ", " +
          std::to_string(e.v) + ") has an endpoint outside [0, " +
          std::to_string(num_nodes) + ")");
    }
    if (e.u == e.v) {
      throw std::invalid_argument("Graph::from_edges: self-loop at node " +
                                  std::to_string(e.u));
    }
    ++offsets[static_cast<std::size_t>(e.u) + 1];
    ++offsets[static_cast<std::size_t>(e.v) + 1];
  }
  for (std::size_t i = 1; i <= n; ++i) offsets[i] += offsets[i - 1];
  std::vector<NodeId> rows(offsets[n]);
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const Edge& e : edges) {
    rows[cursor[static_cast<std::size_t>(e.u)]++] = e.v;
    rows[cursor[static_cast<std::size_t>(e.v)]++] = e.u;
  }
  return from_symmetric_rows(offsets, rows);
}

Graph Graph::from_edges(NodeId num_nodes,
                        const std::vector<std::pair<NodeId, NodeId>>& edges) {
  std::vector<Edge> converted;
  converted.reserve(edges.size());
  for (const auto& [u, v] : edges) {
    converted.push_back({u, v});
  }
  return from_edges(num_nodes, converted);
}

bool Graph::has_edge(NodeId u, NodeId v) const noexcept {
  if (u < 0 || v < 0 || u >= n() || v >= n() || u == v) return false;
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> out;
  out.reserve(m());
  for (NodeId u = 0; u < n(); ++u) {
    for (NodeId v : neighbors(u)) {
      if (u < v) out.push_back({u, v});
    }
  }
  return out;
}

Graph Graph::without_nodes(std::span<const NodeId> removed) const {
  std::vector<bool> gone(static_cast<std::size_t>(n()), false);
  for (NodeId v : removed) {
    assert(v >= 0 && v < n());
    gone[static_cast<std::size_t>(v)] = true;
  }
  std::vector<Edge> kept;
  kept.reserve(m());
  for (const Edge& e : edges()) {
    if (!gone[static_cast<std::size_t>(e.u)] &&
        !gone[static_cast<std::size_t>(e.v)]) {
      kept.push_back(e);
    }
  }
  return from_edges(n(), kept);
}

}  // namespace ftc::graph
