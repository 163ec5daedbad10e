// Algorithm 2 of the paper: distributed randomized rounding (Section 4.2) —
// centralized mirror.
//
// Given a (PP)-feasible fractional solution x, every node joins the
// dominating set with probability p_i = min{1, x_i·ln(Δ+1)}. Nodes still
// short of their demand k_i then request exactly their shortfall from
// closed-neighborhood members that stayed out; requested nodes join.
//
//   Theorem 4.6: starting from a ρ-approximate fractional solution the
//   result is an integral k-fold dominating set (LP definition) of expected
//   size ρ·ln(Δ+1)·OPT + O(OPT), i.e. ratio ρ·lnΔ + O(1), in O(1) rounds.
//
// The mirror reproduces the per-node randomness of the distributed process
// exactly: node v's coin uses stream Rng(seed).split(v), the same stream the
// simulator hands the process, so mirror and simulator pick identical sets.
//
// Deterministic request rule (the paper leaves the choice free): a deficient
// node requests itself first (if it stayed out), then its absent neighbors
// in ascending id order, until the shortfall is met.
//
// Weighted variant (Section 4.1's remark): with node weights the candidate
// list above is stably sorted by weight, so a deficient node requests its
// cheapest absent closed neighbors, equal weights keeping the unit-cost
// order. Coins are unchanged; Theorem 4.6 carries over with the weighted
// objective (E[w(X)] = ln(Δ+1)·Σ w_i x_i by linearity).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "domination/domination.h"
#include "domination/fractional.h"
#include "graph/graph.h"

namespace ftc::algo {

/// Synchronous rounds Algorithm 2 takes: coin, request, join.
inline constexpr std::int64_t kRoundingRounds = 3;

/// ln(Δ+1), the coin's scale p_i = min{1, x_i·ln(Δ+1)}: bitwise
/// std::log(double(max_degree) + 1). The mirror and the process both read
/// it here. A per-thread memo of the last Δ makes a network pay the libm
/// call once per worker thread, not once per node.
[[nodiscard]] double rounding_log_d1(graph::NodeId max_degree);

/// Outcome of the rounding step.
struct RoundingResult {
  std::vector<graph::NodeId> set;  ///< the integral dominating set, sorted

  /// Nodes chosen by the probabilistic step (the X of Theorem 4.6's proof).
  std::int64_t chosen_by_coin = 0;
  /// Nodes added by coverage requests (the Y of Theorem 4.6's proof).
  std::int64_t chosen_by_request = 0;
  /// Synchronous rounds consumed: kRoundingRounds in the mirror, the
  /// executed count from run_rounding_processes().
  std::int64_t rounds = kRoundingRounds;
};

/// Reusable buffers for the no-alloc rounding overload. A scratch reused
/// across trials reaches a zero-allocation steady state (the buffers grow
/// to the largest instance seen and stay put).
struct RoundingScratch {
  std::vector<std::uint8_t> in_set;
  std::vector<std::uint8_t> requested;
  std::vector<graph::NodeId> candidates;  ///< one deficient node's requests
};

/// Rounds the fractional solution `x` into an integral k-fold dominating
/// set. `seed` must equal the SyncNetwork seed for mirror/simulator
/// equality. `weights` (all > 0) orders the requests as described above;
/// empty means unit cost. Preconditions: x.x.size() == g.n() ==
/// demands.size(), and weights is empty or of size g.n().
[[nodiscard]] RoundingResult round_fractional(
    const graph::Graph& g, const domination::FractionalSolution& x,
    const domination::Demands& demands, std::uint64_t seed,
    std::span<const double> weights = {});

/// No-alloc variant: writes the result into `out` (set cleared and refilled,
/// counters reset) using caller-owned scratch. Identical output to
/// round_fractional — the value-returning overload delegates here. In
/// steady state (scratch and out reused, instance size not growing) the
/// call performs zero heap allocations.
void round_fractional(const graph::Graph& g,
                      const domination::FractionalSolution& x,
                      const domination::Demands& demands, std::uint64_t seed,
                      RoundingScratch& scratch, RoundingResult& out,
                      std::span<const double> weights = {});

}  // namespace ftc::algo
