// Lower bounds on the optimal k-fold dominating set size.
//
// k-MDS is NP-hard, so approximation-ratio measurements need a lower bound
// on OPT as the denominator. Reporting ratio = |S| / lower_bound then makes
// every measured ratio an *upper bound* on the true approximation ratio —
// the conservative direction for validating the paper's claims.
//
// Available bounds:
//  * packing:   Σ_i k_i / (Δ+1) — each selected node covers ≤ Δ+1 nodes,
//               once each (used in the paper's own proof of Lemma 4.2).
//  * max-demand: max_i k_i (LP mode: node i needs k_i members in N_i).
//  * local packing: for any node i, all of demand k_i must come from N_i, so
//    OPT ≥ max over i of (k_i) refined by disjoint neighborhoods — we use a
//    greedy disjoint-neighborhood packing: pick nodes with pairwise disjoint
//    closed neighborhoods; their demands sum to a valid lower bound.
//  * dual: any (DP)-feasible dual solution's objective (weak duality); the
//    scaled dual of Algorithm 1 provides one.
//  * Hs: |greedy| / H(Δ+1) where greedy is the centralized H-approximation
//    (caller supplies |greedy|).
#pragma once

#include <cstdint>

#include "domination/domination.h"
#include "graph/graph.h"

namespace ftc::domination {

/// ⌈Σ_i k_i / (Δ+1)⌉ (0 for the empty graph).
[[nodiscard]] std::int64_t packing_lower_bound(const graph::Graph& g,
                                               const Demands& demands);

/// max_i k_i (valid under the LP/closed-neighborhood definition).
[[nodiscard]] std::int64_t max_demand_lower_bound(const Demands& demands);

/// Greedy disjoint-neighborhood packing: repeatedly pick the unmarked node
/// with the largest demand, add its demand to the bound, and mark its
/// two-hop neighborhood (so chosen nodes have disjoint closed
/// neighborhoods). Sound because coverage for nodes with disjoint closed
/// neighborhoods must come from disjoint dominator sets.
[[nodiscard]] std::int64_t disjoint_packing_lower_bound(
    const graph::Graph& g, const Demands& demands);

/// Harmonic number H(m) = Σ_{i=1..m} 1/i.
[[nodiscard]] double harmonic(std::int64_t m);

/// Best-of-all combiner. `greedy_size` ≤ 0 and `dual_objective` ≤ 0 mean
/// "not available". Returns a value ≥ 1 whenever some node has demand ≥ 1.
[[nodiscard]] double best_lower_bound(const graph::Graph& g,
                                      const Demands& demands,
                                      std::int64_t greedy_size = 0,
                                      double dual_objective = 0.0);

}  // namespace ftc::domination
