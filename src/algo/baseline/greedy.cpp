#include "algo/baseline/greedy.h"

#include <algorithm>
#include <cassert>
#include <queue>

namespace ftc::algo {

using graph::NodeId;

GreedyResult greedy_kmds(const graph::Graph& g,
                         const domination::Demands& demands,
                         std::span<const double> weights) {
  assert(static_cast<NodeId>(demands.size()) == g.n());
  assert(weights.empty() || static_cast<NodeId>(weights.size()) == g.n());
  const auto n = static_cast<std::size_t>(g.n());

  GreedyResult result;
  // residual[i]: how many more dominators node i still needs.
  std::vector<std::int32_t> residual(demands.begin(), demands.end());
  std::vector<std::uint8_t> chosen(n, 0);

  // span(v): number of closed neighbors with residual > 0 — the coverage
  // gain of picking v. A node can dominate each neighbor at most once, so
  // gain is the count of deficient closed neighbors, independent of how
  // deficient they are.
  auto span_of = [&](NodeId v) {
    std::int32_t s = residual[static_cast<std::size_t>(v)] > 0 ? 1 : 0;
    for (NodeId w : g.neighbors(v)) {
      if (residual[static_cast<std::size_t>(w)] > 0) ++s;
    }
    return s;
  };
  auto cost_of = [&](NodeId v) {
    return weights.empty() ? 1.0 : weights[static_cast<std::size_t>(v)];
  };

  // Lazy min-heap on cost/span: spans only decrease, so an entry is stale
  // exactly when its recorded span exceeds the recomputed one.
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
  std::priority_queue<Entry, std::vector<Entry>, decltype(cmp)> heap(cmp);
  for (NodeId v = 0; v < g.n(); ++v) {
    const std::int32_t s = span_of(v);
    if (s > 0) heap.push({cost_of(v) / s, s, v});
  }

  std::int64_t deficient_total = 0;
  for (std::int32_t r : residual) {
    if (r > 0) ++deficient_total;
  }

  while (deficient_total > 0 && !heap.empty()) {
    const Entry top = heap.top();
    const NodeId v = top.v;
    heap.pop();
    if (chosen[static_cast<std::size_t>(v)]) continue;
    const std::int32_t actual = span_of(v);
    if (actual <= 0) continue;
    if (actual < top.span) {
      heap.push({cost_of(v) / actual, actual, v});  // stale; reinsert
      continue;
    }
    // Select v.
    chosen[static_cast<std::size_t>(v)] = 1;
    auto cover_one = [&](NodeId u) {
      auto& r = residual[static_cast<std::size_t>(u)];
      if (r > 0 && --r == 0) --deficient_total;
    };
    cover_one(v);
    for (NodeId w : g.neighbors(v)) cover_one(w);
  }

  result.fully_satisfied = deficient_total == 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (chosen[v]) result.set.push_back(static_cast<NodeId>(v));
  }
  return result;
}

}  // namespace ftc::algo
