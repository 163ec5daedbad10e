#include "algo/exact/exact.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>

#include "algo/baseline/greedy.h"

namespace ftc::algo {

using graph::NodeId;

namespace {

struct Searcher {
  const graph::Graph& g;
  const domination::Demands& demands;
  std::span<const double> weights;  // empty: unit cost
  std::int64_t node_budget;

  std::vector<std::int32_t> residual;
  std::vector<std::uint8_t> chosen;
  std::vector<std::uint8_t> excluded;
  double chosen_cost = 0.0;
  std::int64_t deficient_total = 0;  // Σ max(residual, 0)
  double min_cost = 1.0;

  std::vector<NodeId> best_set;
  double best_cost = 0.0;
  bool budget_exhausted = false;
  std::int64_t nodes_explored = 0;

  Searcher(const graph::Graph& graph, const domination::Demands& d,
           std::span<const double> w, std::int64_t budget)
      : g(graph), demands(d), weights(w), node_budget(budget) {
    const auto n = static_cast<std::size_t>(g.n());
    residual.assign(d.begin(), d.end());
    chosen.assign(n, 0);
    excluded.assign(n, 0);
    for (std::int32_t r : residual) deficient_total += std::max(r, 0);
    if (!w.empty()) min_cost = *std::min_element(w.begin(), w.end());
  }

  [[nodiscard]] double cost(NodeId v) const {
    return weights.empty() ? 1.0 : weights[static_cast<std::size_t>(v)];
  }

  /// Available helpers of v: unchosen, unexcluded closed neighbors.
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
    chosen_cost += cost(v);
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
    chosen_cost -= cost(v);
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

    // Costs are compared with a 1e-12 slack so that sums of weights that
    // differ only by rounding count as equal; at unit cost they are exact
    // integers and the slack changes nothing.
    if (deficient_total == 0) {
      if (chosen_cost < best_cost - 1e-12) {
        best_cost = chosen_cost;
        best_set = domination::to_node_list(chosen);
      }
      return;
    }

    // Bound prune: every further pick covers ≤ Δ+1 demand units and costs
    // at least min_cost, and some node still needs `max residual` distinct
    // picks.
    std::int32_t max_residual = 0;
    for (std::int32_t r : residual) max_residual = std::max(max_residual, r);
    const std::int64_t capacity = g.max_degree() + 1;
    const std::int64_t need =
        std::max<std::int64_t>((deficient_total + capacity - 1) / capacity,
                               max_residual);
    if (chosen_cost + static_cast<double>(need) * min_cost >=
        best_cost - 1e-12) {
      return;
    }

    // Most-constrained deficient node: fewest spare helpers.
    NodeId pivot = -1;
    std::int32_t pivot_slack = 0;
    for (NodeId v = 0; v < g.n(); ++v) {
      const auto i = static_cast<std::size_t>(v);
      if (residual[i] <= 0) continue;
      const std::int32_t slack = available(v) - residual[i];
      if (slack < 0) return;  // infeasible branch
      if (pivot == -1 || slack < pivot_slack) {
        pivot = v;
        pivot_slack = slack;
      }
    }
    assert(pivot >= 0);

    // Branch variable: the available helper of `pivot` of least cost per
    // deficient node covered (every helper covers at least the pivot).
    NodeId branch = -1;
    double branch_cost_per_span = std::numeric_limits<double>::infinity();
    auto consider = [&](NodeId v) {
      const auto i = static_cast<std::size_t>(v);
      if (chosen[i] || excluded[i]) return;
      const double c = cost(v) / span(v);
      if (c < branch_cost_per_span) {
        branch_cost_per_span = c;
        branch = v;
      }
    };
    consider(pivot);
    for (NodeId w : g.neighbors(pivot)) consider(w);
    assert(branch >= 0);

    // Include branch first (tends to find good incumbents early).
    std::vector<NodeId> covered;
    include(branch, covered);
    dfs();
    undo_include(branch, covered);

    // Exclude branch.
    excluded[static_cast<std::size_t>(branch)] = 1;
    dfs();
    excluded[static_cast<std::size_t>(branch)] = 0;
  }
};

}  // namespace

ExactResult exact_kmds(const graph::Graph& g,
                       const domination::Demands& demands,
                       const ExactOptions& options,
                       std::span<const double> weights) {
  assert(static_cast<NodeId>(demands.size()) == g.n());
  assert(weights.empty() || static_cast<NodeId>(weights.size()) == g.n());
  ExactResult result;
  if (!domination::instance_feasible(g, demands)) {
    result.feasible = false;
    return result;
  }

  Searcher searcher(g, demands, weights, options.node_budget);

  // Incumbent from greedy (feasible because the instance is feasible).
  const GreedyResult greedy = greedy_kmds(g, demands, weights);
  assert(greedy.fully_satisfied);
  searcher.best_set = greedy.set;
  for (NodeId v : greedy.set) searcher.best_cost += searcher.cost(v);

  searcher.dfs();

  result.set = std::move(searcher.best_set);
  result.optimal = !searcher.budget_exhausted;
  result.nodes_explored = searcher.nodes_explored;
  return result;
}

}  // namespace ftc::algo
