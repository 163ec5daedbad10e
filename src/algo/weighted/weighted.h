// Weighted k-fold dominating set — the extension the paper notes in
// Section 4.1 ("It would also be possible to extend our algorithm to also
// solve the weighted version of the k-MDS problem").
//
// Every node carries a selection cost w_v > 0 (e.g. remaining battery:
// expensive nodes should cluster-head rarely); the objective becomes
// min Σ_{v∈S} w_v subject to the same closed-neighborhood coverage
// constraints as (PP).
//
// Provided here:
//  * weighted greedy — the classical cost-effectiveness greedy for set
//    multicover (pick argmax span/weight), an H(Δ+1)-approximation
//    [Rajagopalan–Vazirani];
//  * weighted exact — branch and bound minimizing total weight (ground
//    truth for small instances);
//  * weighted randomized rounding — Algorithm 2 with the request rule
//    picking the *cheapest* absent closed neighbor; the Theorem 4.6
//    argument carries over verbatim with the weighted objective
//    (E[w(X)] = ln(Δ+1)·Σ w_i x_i by linearity);
//  * a packing lower bound on the weighted optimum.
//
// A *distributed* weighted fractional solver is out of scope: the paper
// only remarks that the extension is possible, and its Algorithm 1 analysis
// is stated for the unweighted LP. Rounding accepts any externally computed
// weighted-feasible fractional solution.
#pragma once

#include <cstdint>
#include <vector>

#include "domination/domination.h"
#include "domination/fractional.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace ftc::algo {

/// Per-node selection costs; all entries must be > 0.
using NodeWeights = std::vector<double>;

/// Independent uniform weights in [lo, hi]. Precondition: 0 < lo <= hi.
[[nodiscard]] NodeWeights random_weights(graph::NodeId n, double lo,
                                         double hi, util::Rng& rng);

/// Total weight of a node set.
[[nodiscard]] double set_weight(std::span<const graph::NodeId> set,
                                const NodeWeights& weights);

/// Result of the weighted greedy.
struct WeightedGreedyResult {
  std::vector<graph::NodeId> set;  ///< chosen nodes, sorted
  double weight = 0.0;             ///< Σ w over the set
  bool fully_satisfied = true;
};

/// Cost-effectiveness greedy: repeatedly select the node minimizing
/// weight / (number of still-deficient closed neighbors). Deterministic
/// (ties toward smaller id). O(n·Δ + n log n)-ish via a lazy heap.
[[nodiscard]] WeightedGreedyResult weighted_greedy_kmds(
    const graph::Graph& g, const domination::Demands& demands,
    const NodeWeights& weights);

/// Result of the weighted exact solver.
struct WeightedExactResult {
  std::vector<graph::NodeId> set;
  double weight = 0.0;
  bool optimal = false;
  bool feasible = true;
  std::int64_t nodes_explored = 0;
};

/// Branch-and-bound options (weight-domain).
struct WeightedExactOptions {
  std::int64_t node_budget = 5'000'000;
};

/// Minimum-weight k-fold dominating set (closed-neighborhood definition).
[[nodiscard]] WeightedExactResult weighted_exact_kmds(
    const graph::Graph& g, const domination::Demands& demands,
    const NodeWeights& weights, const WeightedExactOptions& options = {});

/// Result of weighted rounding.
struct WeightedRoundingResult {
  std::vector<graph::NodeId> set;
  double weight = 0.0;
  std::int64_t chosen_by_coin = 0;
  std::int64_t chosen_by_request = 0;
};

/// Algorithm 2 with weight-aware requests: coins exactly as in the
/// unweighted version (p_i = min{1, x_i ln(Δ+1)}); deficient nodes request
/// their shortfall from the *cheapest* absent closed neighbors (ties toward
/// the smaller id, self treated like any other candidate).
[[nodiscard]] WeightedRoundingResult weighted_round_fractional(
    const graph::Graph& g, const domination::FractionalSolution& x,
    const domination::Demands& demands, const NodeWeights& weights,
    std::uint64_t seed);

/// Weighted packing bound: OPT_w ≥ (Σ_i k_i / (Δ+1)) · min_i w_i, plus the
/// per-node refinement max_i (cheapest k_i weights in N[i] summed).
[[nodiscard]] double weighted_lower_bound(const graph::Graph& g,
                                          const domination::Demands& demands,
                                          const NodeWeights& weights);

}  // namespace ftc::algo
