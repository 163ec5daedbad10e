// Centralized greedy k-MDS — the classical H_Δ-approximation baseline.
//
// This is the algorithm the paper's Section 4.1 distributes ("In the greedy
// algorithm, we start with an empty set S. In each step, a node with a
// maximal number of not yet completely covered neighbors is added to S"),
// i.e. greedy set multicover [Rajagopalan–Vazirani]: repeatedly add the node
// covering the most still-deficient closed neighbors. Guarantees an
// H(Δ+1)-approximation for the LP (closed-neighborhood) definition, so
// |greedy| / H(Δ+1) is also a valid OPT lower bound (domination/bounds.h).
//
// With node weights (Section 4.1's weighted remark) the same loop picks the
// node of least cost per deficient closed neighbor, still an
// H(Δ+1)-approximation of the weighted optimum; unit cost is the rule above.
#pragma once

#include <span>
#include <vector>

#include "domination/domination.h"
#include "graph/graph.h"

namespace ftc::algo {

/// Result of the greedy baseline.
struct GreedyResult {
  std::vector<graph::NodeId> set;  ///< chosen dominators, sorted

  /// True when all demands were satisfied (false only on infeasible
  /// instances, where greedy covers as much as possible and stops).
  bool fully_satisfied = true;
};

/// Runs greedy set multicover for the demands (LP definition): each step
/// selects the node minimizing cost / (still-deficient closed neighbors),
/// where cost is `weights[v]` (all > 0) or 1 when `weights` is empty. Ties
/// are broken toward the smaller node id, making the result deterministic.
///
/// Unit cost selects by span level: each node waits on the level of its
/// last computed span, re-checked when visited, and the top level is
/// scanned in ascending id through one n-bit set (DESIGN.md §11, "Greedy by
/// span levels"). Beyond the span re-checks, each level costs
/// O(members + id range / 64), with no comparisons. Weighted calls keep a
/// lazy priority queue on cost/span, O((n + m) log n): a cost/span key is
/// not a small integer, so there are no levels to bucket by.
[[nodiscard]] GreedyResult greedy_kmds(const graph::Graph& g,
                                       const domination::Demands& demands,
                                       std::span<const double> weights = {});

}  // namespace ftc::algo
