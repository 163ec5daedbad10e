#include "graph/dynamic.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

namespace ftc::graph {

namespace {

/// Largest uint32 index: bounds both the CSR's 2m and the slab's size.
constexpr std::size_t kSlabLimit = std::numeric_limits<std::uint32_t>::max();

}  // namespace

bool csr_arcs_fit(std::size_t directed_arcs) noexcept {
  return directed_arcs <= kSlabLimit;
}

MutableGraph::MutableGraph(const Graph& g)
    : rows_(static_cast<std::size_t>(g.n())), arcs_(2 * g.m()) {
  const bool fits = arcs_ + std::size_t{kRowSlack} * rows_.size() <= kSlabLimit;
  const std::uint32_t slack = fits ? kRowSlack : 0;
  slab_.resize(arcs_ + std::size_t{slack} * rows_.size());
  std::uint32_t at = 0;
  for (NodeId v = 0; v < g.n(); ++v) {
    const auto nbrs = g.neighbors(v);
    const auto size = static_cast<std::uint32_t>(nbrs.size());
    std::copy(nbrs.begin(), nbrs.end(), slab_.begin() + at);
    rows_[static_cast<std::size_t>(v)] = {at, size, size + slack};
    at += size + slack;
  }
}

NodeId MutableGraph::add_node() {
  rows_.push_back({static_cast<std::uint32_t>(slab_.size()), 0, 0});
  return static_cast<NodeId>(rows_.size() - 1);
}

bool MutableGraph::has_edge(NodeId u, NodeId v) const noexcept {
  if (u < 0 || v < 0 || u >= n() || v >= n() || u == v) return false;
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

void MutableGraph::grow(NodeId v) {
  Row& r = rows_[static_cast<std::size_t>(v)];
  const std::size_t want =
      std::max<std::size_t>(2 * std::size_t{r.cap}, kRowSlack);
  const bool at_tail = r.begin + std::size_t{r.cap} == slab_.size();
  const std::size_t end = slab_.size() + (at_tail ? want - r.cap : want);
  const std::size_t footprint = arcs_ + std::size_t{kRowSlack} * rows_.size();
  if (end > 2 * footprint || end > kSlabLimit) {
    compact(v);
    return;
  }
  if (at_tail) {
    slab_.resize(end);
  } else {
    const std::uint32_t from = r.begin;
    r.begin = static_cast<std::uint32_t>(slab_.size());
    slab_.resize(end);
    std::copy_n(slab_.begin() + from, r.size, slab_.begin() + r.begin);
  }
  r.cap = static_cast<std::uint32_t>(want);
}

void MutableGraph::compact(NodeId v) {
  std::size_t live = 0;
  for (const Row& r : rows_) live += r.size;
  // Every row keeps kRowSlack free slots, so v has room for its next
  // neighbor. Near the 32-bit bound no row keeps slack, and v gets exactly
  // one free slot; add_edge has already checked that 2m + 2 fits.
  const bool tight = live + std::size_t{kRowSlack} * rows_.size() > kSlabLimit;
  const std::uint32_t slack = tight ? 0 : kRowSlack;
  const std::size_t total =
      live + (tight ? 1 : std::size_t{kRowSlack} * rows_.size());
  std::vector<NodeId> next;
  next.reserve(std::min(2 * total, kSlabLimit));
  next.resize(total);
  std::uint32_t at = 0;
  for (std::size_t w = 0; w < rows_.size(); ++w) {
    Row& r = rows_[w];
    std::copy_n(slab_.begin() + r.begin, r.size, next.begin() + at);
    r.begin = at;
    r.cap = r.size + slack;
    if (tight && w == static_cast<std::size_t>(v)) ++r.cap;
    at += r.cap;
  }
  slab_.swap(next);
}

void MutableGraph::insert(NodeId x, std::size_t i, NodeId w) {
  Row& r = rows_[static_cast<std::size_t>(x)];
  if (r.size == r.cap) grow(x);
  NodeId* row = slab_.data() + r.begin;
  std::copy_backward(row + i, row + r.size, row + r.size + 1);
  row[i] = w;
  ++r.size;
}

bool MutableGraph::add_edge(NodeId u, NodeId v) {
  assert(u >= 0 && u < n() && v >= 0 && v < n());
  if (u == v) return false;
  const auto nu = neighbors(u);
  const auto at_u = std::lower_bound(nu.begin(), nu.end(), v);
  if (at_u != nu.end() && *at_u == v) return false;
  if (!csr_arcs_fit(arcs_ + 2)) {
    throw std::length_error("MutableGraph::add_edge: 2m exceeds uint32 offsets");
  }
  insert(u, static_cast<std::size_t>(at_u - nu.begin()), v);
  const auto nv = neighbors(v);  // after u's insert: it may move v's row
  insert(v,
         static_cast<std::size_t>(std::lower_bound(nv.begin(), nv.end(), u) -
                                  nv.begin()),
         u);
  arcs_ += 2;
  return true;
}

void MutableGraph::erase(NodeId x, NodeId w) {
  Row& r = rows_[static_cast<std::size_t>(x)];
  NodeId* row = slab_.data() + r.begin;
  NodeId* it = std::lower_bound(row, row + r.size, w);
  assert(it != row + r.size && *it == w);
  std::copy(it + 1, row + r.size, it);
  --r.size;
}

bool MutableGraph::remove_edge(NodeId u, NodeId v) {
  if (!has_edge(u, v)) return false;
  erase(u, v);
  erase(v, u);
  arcs_ -= 2;
  return true;
}

void MutableGraph::isolate(NodeId v, std::vector<Edge>& out) {
  assert(v >= 0 && v < n());
  Row& r = rows_[static_cast<std::size_t>(v)];
  out.reserve(out.size() + r.size);
  for (const NodeId w : neighbors(v)) {
    out.push_back(v < w ? Edge{v, w} : Edge{w, v});
    erase(w, v);  // w != v, so v's row stays put
  }
  arcs_ -= 2 * std::size_t{r.size};
  r.size = 0;
}

std::vector<Edge> MutableGraph::edges() const {
  std::vector<Edge> out;
  out.reserve(m());
  for (NodeId u = 0; u < n(); ++u) {
    for (NodeId v : neighbors(u)) {
      if (u < v) out.push_back({u, v});
    }
  }
  return out;
}

Graph MutableGraph::to_graph() const {
  std::vector<std::uint32_t> offsets(rows_.size() + 1, 0);
  std::vector<NodeId> adjacency(arcs_);
  auto out = adjacency.begin();
  for (NodeId v = 0; v < n(); ++v) {
    const auto nbrs = neighbors(v);
    out = std::copy(nbrs.begin(), nbrs.end(), out);
    offsets[static_cast<std::size_t>(v) + 1] =
        static_cast<std::uint32_t>(out - adjacency.begin());
  }
  return Graph(std::move(offsets), std::move(adjacency));
}

}  // namespace ftc::graph
