#include "algo/baseline/greedy.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <queue>
#include <utility>

namespace ftc::algo {

using graph::NodeId;

namespace {

/// State of one greedy run, shared by both selectors.
struct Cover {
  const graph::Graph& g;
  /// residual[i]: how many more dominators node i still needs.
  std::vector<std::int32_t> residual;
  std::vector<std::uint8_t> chosen;
  /// Nodes with residual > 0.
  std::int64_t deficient = 0;

  Cover(const graph::Graph& graph, const domination::Demands& demands)
      : g(graph),
        residual(demands.begin(), demands.end()),
        chosen(static_cast<std::size_t>(graph.n()), 0) {
    for (std::int32_t r : residual) {
      if (r > 0) ++deficient;
    }
  }

  /// Number of closed neighbors with residual > 0 — the coverage gain of
  /// picking v. A node can dominate each neighbor at most once, so gain is
  /// the count of deficient closed neighbors, independent of how deficient
  /// they are.
  [[nodiscard]] std::int32_t span(NodeId v) const {
    std::int32_t s = residual[static_cast<std::size_t>(v)] > 0 ? 1 : 0;
    for (NodeId w : g.neighbors(v)) {
      if (residual[static_cast<std::size_t>(w)] > 0) ++s;
    }
    return s;
  }

  void pick(NodeId v) {
    chosen[static_cast<std::size_t>(v)] = 1;
    auto cover_one = [&](NodeId u) {
      auto& r = residual[static_cast<std::size_t>(u)];
      if (r > 0 && --r == 0) --deficient;
    };
    cover_one(v);
    for (NodeId w : g.neighbors(v)) cover_one(w);
  }
};

/// Unit cost. Each node sits on the level of its recorded span, an upper
/// bound (spans only decrease), re-checked when the node is visited; a stale
/// node drops to its actual level. While level s is the top level nothing
/// can enter it, so its members are visited in ascending id by a forward
/// scan over an n-bit set filled from the level's list: O(entries + id
/// range / 64) per level. The visiting order is (largest recorded span,
/// smallest id), the lazy heap's order on 1/span, so the picks are its picks.
void pick_by_levels(Cover& c) {
  const NodeId n = c.g.n();
  constexpr NodeId kNone = -1;
  // head[s] → next[] → ...: the intrusive list of level s. A node is on at
  // most one list: it leaves the top level's when that level is scanned.
  std::vector<NodeId> head(static_cast<std::size_t>(c.g.max_degree()) + 2,
                           kNone);
  std::vector<NodeId> next(static_cast<std::size_t>(n));
  const auto push = [&](NodeId v, std::int32_t s) {
    next[static_cast<std::size_t>(v)] = head[static_cast<std::size_t>(s)];
    head[static_cast<std::size_t>(s)] = v;
  };
  for (NodeId v = 0; v < n; ++v) {
    const std::int32_t s = c.span(v);
    if (s > 0) push(v, s);
  }

  std::vector<std::uint64_t> bits((static_cast<std::size_t>(n) + 63) / 64, 0);
  for (auto s = static_cast<std::int32_t>(head.size()) - 1;
       s > 0 && c.deficient > 0; --s) {
    auto v = std::exchange(head[static_cast<std::size_t>(s)], kNone);
    if (v == kNone) continue;
    auto lo = static_cast<std::size_t>(v) / 64;
    auto hi = lo;
    for (; v != kNone; v = next[static_cast<std::size_t>(v)]) {
      const auto w = static_cast<std::size_t>(v) / 64;
      bits[w] |= std::uint64_t{1} << (v % 64);
      lo = std::min(lo, w);
      hi = std::max(hi, w);
    }
    for (std::size_t w = lo; w <= hi; ++w) {
      // No bit is set while s is the top level (drops go to lower lists),
      // so the word can be taken whole.
      for (std::uint64_t word = std::exchange(bits[w], 0); word != 0;
           word &= word - 1) {
        if (c.deficient == 0) return;
        const auto u = static_cast<NodeId>(w * 64 + static_cast<std::size_t>(
                                                        std::countr_zero(word)));
        const std::int32_t actual = c.span(u);
        assert(actual <= s);
        if (actual == s) {
          c.pick(u);
        } else if (actual > 0) {
          push(u, actual);  // stale; drops to its actual level
        }
      }
    }
  }
}

/// Weighted: lazy min-heap on cost/span. Spans only decrease, so an entry is
/// stale exactly when its recorded span exceeds the recomputed one.
void pick_by_heap(Cover& c, std::span<const double> weights) {
  struct Entry {
    double cost_per_span;
    std::int32_t span;
    NodeId v;
  };
  const auto cmp = [](const Entry& a, const Entry& b) {
    if (a.cost_per_span != b.cost_per_span) {
      return a.cost_per_span > b.cost_per_span;
    }
    return a.v > b.v;  // smaller id wins ties
  };
  const auto cost_of = [&](NodeId v) {
    return weights[static_cast<std::size_t>(v)];
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(cmp)> heap(cmp);
  for (NodeId v = 0; v < c.g.n(); ++v) {
    const std::int32_t s = c.span(v);
    if (s > 0) heap.push({cost_of(v) / s, s, v});
  }

  while (c.deficient > 0 && !heap.empty()) {
    const Entry top = heap.top();
    const NodeId v = top.v;
    heap.pop();
    if (c.chosen[static_cast<std::size_t>(v)]) continue;
    const std::int32_t actual = c.span(v);
    if (actual <= 0) continue;
    if (actual < top.span) {
      heap.push({cost_of(v) / actual, actual, v});  // stale; reinsert
      continue;
    }
    c.pick(v);
  }
}

}  // namespace

GreedyResult greedy_kmds(const graph::Graph& g,
                         const domination::Demands& demands,
                         std::span<const double> weights) {
  assert(static_cast<NodeId>(demands.size()) == g.n());
  assert(weights.empty() || static_cast<NodeId>(weights.size()) == g.n());

  Cover c(g, demands);
  if (weights.empty()) {
    pick_by_levels(c);
  } else {
    pick_by_heap(c, weights);
  }

  GreedyResult result;
  result.fully_satisfied = c.deficient == 0;
  for (std::size_t v = 0; v < c.chosen.size(); ++v) {
    if (c.chosen[v]) result.set.push_back(static_cast<NodeId>(v));
  }
  return result;
}

}  // namespace ftc::algo
