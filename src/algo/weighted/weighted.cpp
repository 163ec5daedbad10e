#include "algo/weighted/weighted.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

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
