#include "domination/bounds.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace ftc::domination {

using graph::NodeId;

std::int64_t packing_lower_bound(const graph::Graph& g,
                                 const Demands& demands) {
  if (g.n() == 0) return 0;
  const std::int64_t total_demand =
      std::accumulate(demands.begin(), demands.end(), std::int64_t{0});
  const std::int64_t capacity = g.max_degree() + 1;
  return (total_demand + capacity - 1) / capacity;
}

std::int64_t max_demand_lower_bound(const Demands& demands) {
  std::int64_t best = 0;
  for (std::int32_t k : demands) best = std::max<std::int64_t>(best, k);
  return best;
}

std::int64_t disjoint_packing_lower_bound(const graph::Graph& g,
                                          const Demands& demands) {
  assert(static_cast<NodeId>(demands.size()) == g.n());
  // Sort nodes by demand descending; greedily take nodes whose closed
  // neighborhood does not intersect any already-taken closed neighborhood.
  std::vector<NodeId> order(static_cast<std::size_t>(g.n()));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return demands[static_cast<std::size_t>(a)] >
           demands[static_cast<std::size_t>(b)];
  });

  std::vector<bool> blocked(static_cast<std::size_t>(g.n()), false);
  std::int64_t bound = 0;
  for (NodeId v : order) {
    if (demands[static_cast<std::size_t>(v)] <= 0) break;
    // v usable iff no node of N[v] is blocked (i.e. N[v] disjoint from all
    // previously chosen closed neighborhoods).
    bool usable = !blocked[static_cast<std::size_t>(v)];
    if (usable) {
      for (NodeId w : g.neighbors(v)) {
        if (blocked[static_cast<std::size_t>(w)]) {
          usable = false;
          break;
        }
      }
    }
    if (!usable) continue;
    bound += demands[static_cast<std::size_t>(v)];
    // Block N[v] and all nodes adjacent to N[v] (two-hop), so the next
    // chosen node's closed neighborhood cannot share a node with N[v].
    blocked[static_cast<std::size_t>(v)] = true;
    for (NodeId w : g.neighbors(v)) {
      blocked[static_cast<std::size_t>(w)] = true;
      for (NodeId u : g.neighbors(w)) {
        blocked[static_cast<std::size_t>(u)] = true;
      }
    }
  }
  return bound;
}

double harmonic(std::int64_t m) {
  double h = 0.0;
  for (std::int64_t i = 1; i <= m; ++i) {
    h += 1.0 / static_cast<double>(i);
  }
  return h;
}

double best_lower_bound(const graph::Graph& g, const Demands& demands,
                        std::int64_t greedy_size, double dual_objective) {
  double best = static_cast<double>(packing_lower_bound(g, demands));
  best = std::max(best, static_cast<double>(max_demand_lower_bound(demands)));
  best = std::max(
      best, static_cast<double>(disjoint_packing_lower_bound(g, demands)));
  if (greedy_size > 0) {
    best = std::max(best, static_cast<double>(greedy_size) /
                              harmonic(g.max_degree() + 1));
  }
  if (dual_objective > 0.0) {
    best = std::max(best, dual_objective);
  }
  return best;
}

}  // namespace ftc::domination
