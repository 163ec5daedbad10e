#include "algo/weighted/weighted.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <queue>

namespace ftc::algo {

using domination::Demands;
using graph::NodeId;

NodeWeights random_weights(NodeId n, double lo, double hi, util::Rng& rng) {
  assert(lo > 0.0 && lo <= hi);
  NodeWeights w;
  w.reserve(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    w.push_back(rng.uniform(lo, hi));
  }
  return w;
}

double set_weight(std::span<const NodeId> set, const NodeWeights& weights) {
  double total = 0.0;
  for (NodeId v : set) {
    total += weights[static_cast<std::size_t>(v)];
  }
  return total;
}

WeightedGreedyResult weighted_greedy_kmds(const graph::Graph& g,
                                          const Demands& demands,
                                          const NodeWeights& weights) {
  assert(static_cast<NodeId>(demands.size()) == g.n());
  assert(static_cast<NodeId>(weights.size()) == g.n());
  const auto n = static_cast<std::size_t>(g.n());

  WeightedGreedyResult result;
  std::vector<std::int32_t> residual(demands.begin(), demands.end());
  std::vector<std::uint8_t> chosen(n, 0);

  auto span_of = [&](NodeId v) {
    std::int32_t s = residual[static_cast<std::size_t>(v)] > 0 ? 1 : 0;
    for (NodeId w : g.neighbors(v)) {
      if (residual[static_cast<std::size_t>(w)] > 0) ++s;
    }
    return s;
  };
  // Cost-effectiveness = weight / span; lower is better. Lazy min-heap of
  // (cost_effectiveness, id); spans only shrink so stale entries are only
  // too optimistic and re-verified at pop time.
  using Entry = std::pair<double, NodeId>;
  const auto cmp = [](const Entry& a, const Entry& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second > b.second;
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(cmp)> heap(cmp);
  for (NodeId v = 0; v < g.n(); ++v) {
    const std::int32_t s = span_of(v);
    if (s > 0) {
      heap.push({weights[static_cast<std::size_t>(v)] / s, v});
    }
  }

  std::int64_t deficient_total = 0;
  for (std::int32_t r : residual) {
    if (r > 0) ++deficient_total;
  }

  while (deficient_total > 0 && !heap.empty()) {
    const auto [claimed, v] = heap.top();
    heap.pop();
    if (chosen[static_cast<std::size_t>(v)]) continue;
    const std::int32_t s = span_of(v);
    if (s <= 0) continue;
    const double actual = weights[static_cast<std::size_t>(v)] / s;
    if (actual > claimed + 1e-15) {
      heap.push({actual, v});  // stale; reinsert with the true value
      continue;
    }
    chosen[static_cast<std::size_t>(v)] = 1;
    result.weight += weights[static_cast<std::size_t>(v)];
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

namespace {

struct WeightedSearcher {
  const graph::Graph& g;
  const Demands& demands;
  const NodeWeights& weights;
  std::int64_t node_budget;

  std::vector<std::int32_t> residual;
  std::vector<std::uint8_t> chosen;
  std::vector<std::uint8_t> excluded;
  double chosen_weight = 0.0;
  std::int64_t deficient_total = 0;
  double min_weight = 0.0;

  std::vector<NodeId> best_set;
  double best_weight = 0.0;
  bool budget_exhausted = false;
  std::int64_t nodes_explored = 0;

  WeightedSearcher(const graph::Graph& graph, const Demands& d,
                   const NodeWeights& w, std::int64_t budget)
      : g(graph), demands(d), weights(w), node_budget(budget) {
    const auto n = static_cast<std::size_t>(g.n());
    residual.assign(d.begin(), d.end());
    chosen.assign(n, 0);
    excluded.assign(n, 0);
    for (std::int32_t r : residual) deficient_total += std::max(r, 0);
    min_weight = w.empty() ? 1.0
                           : *std::min_element(w.begin(), w.end());
  }

  [[nodiscard]] std::int32_t available(NodeId v) const {
    const auto i = static_cast<std::size_t>(v);
    std::int32_t a = (!chosen[i] && !excluded[i]) ? 1 : 0;
    for (NodeId w : g.neighbors(v)) {
      const auto j = static_cast<std::size_t>(w);
      if (!chosen[j] && !excluded[j]) ++a;
    }
    return a;
  }

  [[nodiscard]] std::int32_t span(NodeId v) const {
    std::int32_t s = residual[static_cast<std::size_t>(v)] > 0 ? 1 : 0;
    for (NodeId w : g.neighbors(v)) {
      if (residual[static_cast<std::size_t>(w)] > 0) ++s;
    }
    return s;
  }

  void include(NodeId v, std::vector<NodeId>& covered) {
    chosen[static_cast<std::size_t>(v)] = 1;
    chosen_weight += weights[static_cast<std::size_t>(v)];
    auto cover = [&](NodeId u) {
      auto& r = residual[static_cast<std::size_t>(u)];
      if (r > 0) {
        --r;
        --deficient_total;
        covered.push_back(u);
      }
    };
    cover(v);
    for (NodeId w : g.neighbors(v)) cover(w);
  }

  void undo_include(NodeId v, const std::vector<NodeId>& covered) {
    chosen[static_cast<std::size_t>(v)] = 0;
    chosen_weight -= weights[static_cast<std::size_t>(v)];
    for (NodeId u : covered) {
      ++residual[static_cast<std::size_t>(u)];
      ++deficient_total;
    }
  }

  void dfs() {
    if (budget_exhausted) return;
    if (++nodes_explored > node_budget) {
      budget_exhausted = true;
      return;
    }
    if (deficient_total == 0) {
      if (chosen_weight < best_weight - 1e-12) {
        best_weight = chosen_weight;
        best_set = domination::to_node_list(chosen);
      }
      return;
    }

    std::int32_t max_residual = 0;
    for (std::int32_t r : residual) max_residual = std::max(max_residual, r);
    const std::int64_t capacity = g.max_degree() + 1;
    const auto picks_needed = std::max<std::int64_t>(
        (deficient_total + capacity - 1) / capacity, max_residual);
    if (chosen_weight + static_cast<double>(picks_needed) * min_weight >=
        best_weight - 1e-12) {
      return;
    }

    NodeId pivot = -1;
    std::int32_t pivot_slack = 0;
    for (NodeId v = 0; v < g.n(); ++v) {
      const auto i = static_cast<std::size_t>(v);
      if (residual[i] <= 0) continue;
      const std::int32_t slack = available(v) - residual[i];
      if (slack < 0) return;
      if (pivot == -1 || slack < pivot_slack) {
        pivot = v;
        pivot_slack = slack;
      }
    }
    assert(pivot >= 0);

    // Branch on the most cost-effective available helper of the pivot.
    NodeId branch = -1;
    double branch_ce = std::numeric_limits<double>::infinity();
    auto consider = [&](NodeId v) {
      const auto i = static_cast<std::size_t>(v);
      if (chosen[i] || excluded[i]) return;
      const std::int32_t s = span(v);
      if (s <= 0) return;
      const double ce = weights[i] / s;
      if (ce < branch_ce) {
        branch_ce = ce;
        branch = v;
      }
    };
    consider(pivot);
    for (NodeId w : g.neighbors(pivot)) consider(w);
    assert(branch >= 0);

    std::vector<NodeId> covered;
    include(branch, covered);
    dfs();
    undo_include(branch, covered);

    excluded[static_cast<std::size_t>(branch)] = 1;
    dfs();
    excluded[static_cast<std::size_t>(branch)] = 0;
  }
};

}  // namespace

WeightedExactResult weighted_exact_kmds(const graph::Graph& g,
                                        const Demands& demands,
                                        const NodeWeights& weights,
                                        const WeightedExactOptions& options) {
  assert(static_cast<NodeId>(demands.size()) == g.n());
  assert(static_cast<NodeId>(weights.size()) == g.n());
  WeightedExactResult result;
  if (!domination::instance_feasible(g, demands)) {
    result.feasible = false;
    return result;
  }

  WeightedSearcher searcher(g, demands, weights, options.node_budget);
  const auto greedy = weighted_greedy_kmds(g, demands, weights);
  assert(greedy.fully_satisfied);
  searcher.best_set = greedy.set;
  searcher.best_weight = greedy.weight;

  searcher.dfs();

  result.set = std::move(searcher.best_set);
  result.weight = set_weight(result.set, weights);
  result.optimal = !searcher.budget_exhausted;
  result.nodes_explored = searcher.nodes_explored;
  return result;
}

WeightedRoundingResult weighted_round_fractional(
    const graph::Graph& g, const domination::FractionalSolution& x,
    const Demands& demands, const NodeWeights& weights, std::uint64_t seed) {
  assert(static_cast<NodeId>(x.x.size()) == g.n());
  assert(static_cast<NodeId>(weights.size()) == g.n());
  const auto n = static_cast<std::size_t>(g.n());
  const double ln_d1 = std::log(static_cast<double>(g.max_degree()) + 1.0);

  WeightedRoundingResult result;
  std::vector<std::uint8_t> in_set(n, 0);
  const util::Rng root(seed);
  for (std::size_t i = 0; i < n; ++i) {
    util::Rng node_rng = root.split(i);
    if (node_rng.bernoulli(std::min(1.0, x.x[i] * ln_d1))) {
      in_set[i] = 1;
      ++result.chosen_by_coin;
    }
  }

  std::vector<std::uint8_t> requested(n, 0);
  for (NodeId v = 0; v < g.n(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    std::int32_t coverage = in_set[i];
    for (NodeId w : g.neighbors(v)) {
      coverage += in_set[static_cast<std::size_t>(w)];
    }
    std::int32_t shortfall = demands[i] - coverage;
    if (shortfall <= 0) continue;
    // Candidates: absent closed neighbors, cheapest first (ties by id).
    std::vector<NodeId> candidates;
    if (!in_set[i]) candidates.push_back(v);
    for (NodeId w : g.neighbors(v)) {
      if (!in_set[static_cast<std::size_t>(w)]) candidates.push_back(w);
    }
    std::sort(candidates.begin(), candidates.end(), [&](NodeId a, NodeId b) {
      const double wa = weights[static_cast<std::size_t>(a)];
      const double wb = weights[static_cast<std::size_t>(b)];
      if (wa != wb) return wa < wb;
      return a < b;
    });
    for (NodeId c : candidates) {
      if (shortfall <= 0) break;
      requested[static_cast<std::size_t>(c)] = 1;
      --shortfall;
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (requested[i] && !in_set[i]) {
      in_set[i] = 1;
      ++result.chosen_by_request;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (in_set[i]) {
      result.set.push_back(static_cast<NodeId>(i));
      result.weight += weights[i];
    }
  }
  return result;
}

double weighted_lower_bound(const graph::Graph& g, const Demands& demands,
                            const NodeWeights& weights) {
  assert(static_cast<NodeId>(demands.size()) == g.n());
  assert(static_cast<NodeId>(weights.size()) == g.n());
  if (g.n() == 0) return 0.0;

  const double min_w = *std::min_element(weights.begin(), weights.end());
  const auto total_demand =
      std::accumulate(demands.begin(), demands.end(), std::int64_t{0});
  const double packing =
      std::ceil(static_cast<double>(total_demand) /
                static_cast<double>(g.max_degree() + 1)) *
      min_w;

  // Per-node refinement: node i's demand must be met by k_i distinct nodes
  // of N[i]; the cheapest possible way costs the sum of the k_i smallest
  // weights in N[i].
  double per_node = 0.0;
  for (NodeId v = 0; v < g.n(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    const std::int32_t k = demands[i];
    if (k <= 0) continue;
    std::vector<double> local{weights[i]};
    for (NodeId w : g.neighbors(v)) {
      local.push_back(weights[static_cast<std::size_t>(w)]);
    }
    if (static_cast<std::int32_t>(local.size()) < k) continue;  // infeasible
    std::nth_element(local.begin(), local.begin() + (k - 1), local.end());
    double cheapest_sum = 0.0;
    std::sort(local.begin(), local.begin() + k);
    for (std::int32_t j = 0; j < k; ++j) cheapest_sum += local[static_cast<std::size_t>(j)];
    per_node = std::max(per_node, cheapest_sum);
  }
  return std::max(packing, per_node);
}

}  // namespace ftc::algo
