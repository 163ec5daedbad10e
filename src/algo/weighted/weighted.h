// Weighted k-fold dominating set — the extension the paper notes in
// Section 4.1 ("It would also be possible to extend our algorithm to also
// solve the weighted version of the k-MDS problem").
//
// Every node carries a selection cost w_v > 0 (e.g. remaining battery:
// expensive nodes should cluster-head rarely); the objective becomes
// min Σ_{v∈S} w_v subject to the same closed-neighborhood coverage
// constraints as (PP).
//
// The centralized solvers take the weights as an optional last argument,
// unit cost being the unweighted problem: greedy_kmds (least cost per
// deficient neighbor), exact_kmds (minimum total weight) and
// round_fractional (requests go to the cheapest absent closed neighbors).
// Provided here is what has no unweighted counterpart: weight generation,
// set weight, and a packing lower bound on the weighted optimum.
//
// A *distributed* weighted fractional solver is out of scope: the paper
// only remarks that the extension is possible, and its Algorithm 1 analysis
// is stated for the unweighted LP. Rounding accepts any externally computed
// weighted-feasible fractional solution.
#pragma once

#include <span>
#include <vector>

#include "domination/domination.h"
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

/// Weighted packing bound: OPT_w ≥ (Σ_i k_i / (Δ+1)) · min_i w_i, plus the
/// per-node refinement max_i (cheapest k_i weights in N[i] summed).
[[nodiscard]] double weighted_lower_bound(const graph::Graph& g,
                                          const domination::Demands& demands,
                                          const NodeWeights& weights);

}  // namespace ftc::algo
