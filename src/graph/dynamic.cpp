#include "graph/dynamic.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

namespace ftc::graph {

bool csr_arcs_fit(std::size_t directed_arcs) noexcept {
  return directed_arcs <=
         static_cast<std::size_t>(std::numeric_limits<std::uint32_t>::max());
}

MutableGraph::MutableGraph(const Graph& g) {
  adj_.resize(static_cast<std::size_t>(g.n()));
  for (NodeId v = 0; v < g.n(); ++v) {
    const auto nbrs = g.neighbors(v);
    adj_[static_cast<std::size_t>(v)].assign(nbrs.begin(), nbrs.end());
  }
  arcs_ = 2 * g.m();
}

NodeId MutableGraph::add_node() {
  adj_.emplace_back();
  return static_cast<NodeId>(adj_.size() - 1);
}

bool MutableGraph::has_edge(NodeId u, NodeId v) const noexcept {
  if (u < 0 || v < 0 || u >= n() || v >= n() || u == v) return false;
  const auto& nbrs = adj_[static_cast<std::size_t>(u)];
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

bool MutableGraph::add_edge(NodeId u, NodeId v) {
  assert(u >= 0 && u < n() && v >= 0 && v < n());
  if (u == v) return false;
  auto& nu = adj_[static_cast<std::size_t>(u)];
  const auto it = std::lower_bound(nu.begin(), nu.end(), v);
  if (it != nu.end() && *it == v) return false;
  if (!csr_arcs_fit(arcs_ + 2)) {
    throw std::length_error("MutableGraph::add_edge: 2m exceeds uint32 offsets");
  }
  nu.insert(it, v);
  auto& nv = adj_[static_cast<std::size_t>(v)];
  nv.insert(std::lower_bound(nv.begin(), nv.end(), u), u);
  arcs_ += 2;
  return true;
}

bool MutableGraph::remove_edge(NodeId u, NodeId v) {
  if (!has_edge(u, v)) return false;
  auto& nu = adj_[static_cast<std::size_t>(u)];
  nu.erase(std::lower_bound(nu.begin(), nu.end(), v));
  auto& nv = adj_[static_cast<std::size_t>(v)];
  nv.erase(std::lower_bound(nv.begin(), nv.end(), u));
  arcs_ -= 2;
  return true;
}

void MutableGraph::isolate(NodeId v, std::vector<Edge>& out) {
  assert(v >= 0 && v < n());
  auto& nbrs = adj_[static_cast<std::size_t>(v)];
  out.reserve(out.size() + nbrs.size());
  for (NodeId w : nbrs) {
    out.push_back(v < w ? Edge{v, w} : Edge{w, v});
    auto& nw = adj_[static_cast<std::size_t>(w)];
    nw.erase(std::lower_bound(nw.begin(), nw.end(), v));
  }
  arcs_ -= 2 * nbrs.size();
  nbrs.clear();
}

std::vector<Edge> MutableGraph::edges() const {
  std::vector<Edge> out;
  out.reserve(m());
  for (NodeId u = 0; u < n(); ++u) {
    for (NodeId v : adj_[static_cast<std::size_t>(u)]) {
      if (u < v) out.push_back({u, v});
    }
  }
  return out;
}

Graph MutableGraph::to_graph() const {
  std::vector<std::uint32_t> offsets(adj_.size() + 1, 0);
  std::vector<NodeId> adjacency(arcs_);
  auto out = adjacency.begin();
  for (std::size_t v = 0; v < adj_.size(); ++v) {
    out = std::copy(adj_[v].begin(), adj_[v].end(), out);
    offsets[v + 1] = static_cast<std::uint32_t>(out - adjacency.begin());
  }
  return Graph(std::move(offsets), std::move(adjacency));
}

}  // namespace ftc::graph
