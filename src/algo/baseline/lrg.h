// LRG-style distributed greedy baseline (Jia, Rajaraman, Suel,
// "An efficient distributed algorithm for constructing small dominating
// sets", Distributed Computing 15(4), 2002), adapted to k-fold demands.
//
// This is the prior-work comparator the paper cites for general graphs
// (Section 2): expected O(log n·log Δ) rounds and an expected O(log Δ)
// approximation. One LRG iteration:
//
//   1. span d(v) = number of still-deficient closed neighbors of v;
//   2. v is a *candidate* iff its span, rounded up to a power of two, is
//      maximal within its 2-hop neighborhood;
//   3. every deficient node u computes its support s(u) = number of
//      candidates in N[u]; every candidate joins the dominating set with
//      probability 1/median{s(u) : deficient u ∈ N[v]};
//   4. coverage counts are updated; repeat until no node is deficient.
//
// Each iteration costs kLrgRoundsPerIteration = 6 communication rounds —
// the schedule the faithful distributed implementation
// (tests/support/lrg_process.h) actually uses: deficiency flags, spans, two
// hops of max-relaying, candidate flags, supports, and join announcements
// (joins fold into the next iteration's first round).
//
// This adaptation (residual demands instead of a covered bit) follows the
// k-MDS variant sketched in their Section 5; it is a faithful comparator,
// not a bit-exact reimplementation of their pseudocode.
#pragma once

#include <cstdint>
#include <vector>

#include "domination/domination.h"
#include "graph/graph.h"

namespace ftc::algo {

/// Communication rounds per LRG iteration (the schedule of
/// tests/support/lrg_process.h).
inline constexpr std::int64_t kLrgRoundsPerIteration = 6;

/// The iteration safety cap shared by mirror and process (both compute it
/// from globally known n and Δ): LRG converges in O(log n·logΔ) iterations
/// w.h.p.; the cap only guards pathological stalls.
[[nodiscard]] std::int64_t lrg_max_iterations(graph::NodeId n,
                                              graph::NodeId max_degree);

/// Result of the LRG baseline.
struct LrgResult {
  std::vector<graph::NodeId> set;  ///< chosen dominators, sorted
  std::int64_t iterations = 0;     ///< LRG iterations executed
  std::int64_t rounds = 0;         ///< iterations × kLrgRoundsPerIteration
  bool fully_satisfied = true;     ///< false only on infeasible instances
};

/// Runs LRG until all demands are met (or provably unmeetable). Node v's
/// coins come from Rng(seed).split(v), one draw per iteration in which v is
/// a candidate.
[[nodiscard]] LrgResult lrg_kmds(const graph::Graph& g,
                                 const domination::Demands& demands,
                                 std::uint64_t seed);

}  // namespace ftc::algo
