// Exact k-MDS via branch and bound — ground truth for small instances.
//
// k-MDS is NP-hard (it generalizes minimum dominating set), so exact
// solutions are only practical for small n; the experiment suite uses them
// to measure true approximation ratios on instances up to a few dozen
// nodes and to cross-validate the lower-bound toolkit.
//
// Method: depth-first branch and bound on include/exclude decisions. Every
// node has a cost: its weight when weights are given (the weighted variant of
// Section 4.1), else 1, so unit cost is the cardinality problem.
//  * Upper bound: the greedy H_Δ solution initializes the incumbent.
//  * Variable choice: among the closed neighbors of the most-constrained
//    deficient node (fewest available helpers per unit of residual demand),
//    pick the one of least cost per deficient node covered.
//  * Pruning: (a) infeasibility — some deficient node has fewer available
//    (non-excluded, unchosen) closed neighbors than residual demand;
//    (b) bound — cost(chosen) + need × min cost reaches the incumbent, where
//    need = max(⌈Σresidual/(Δ+1)⌉, max residual) further picks.
//
// Solves the LP (closed-neighborhood) definition; a search-node budget
// keeps worst cases bounded (result flagged non-optimal when exhausted).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "domination/domination.h"
#include "graph/graph.h"

namespace ftc::algo {

/// Budget and behavior knobs for the exact solver.
struct ExactOptions {
  /// Maximum branch-and-bound search nodes before giving up (the incumbent
  /// is still returned, flagged non-optimal).
  std::int64_t node_budget = 5'000'000;
};

/// Result of the exact solver.
struct ExactResult {
  std::vector<graph::NodeId> set;  ///< best solution found, sorted
  bool optimal = false;            ///< proven optimal within budget
  bool feasible = true;            ///< instance admits any solution
  std::int64_t nodes_explored = 0;
};

/// Solves min Σ_{v∈S} cost(v) subject to closed-neighborhood coverage ≥
/// demands, where cost is `weights[v]` (all > 0) or 1 when `weights` is
/// empty (min |S|).
[[nodiscard]] ExactResult exact_kmds(const graph::Graph& g,
                                     const domination::Demands& demands,
                                     const ExactOptions& options = {},
                                     std::span<const double> weights = {});

}  // namespace ftc::algo
