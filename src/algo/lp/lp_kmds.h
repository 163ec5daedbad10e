// Algorithm 1 of the paper: distributed LP approximation for fractional
// k-fold dominating set (Section 4.1) — centralized mirror.
//
// The algorithm runs t² "inner iterations" indexed by (p, q), both counting
// down from t-1 to 0. In iteration (p, q), every node v_i with x_i < 1 whose
// *dynamic degree* δ̃_i (number of white = not-yet-k_i-covered nodes in its
// closed neighborhood, itself included) is at least (Δ+1)^{p/t} raises its
// x-value by (Δ+1)^{-q/t}. Alongside the primal x it maintains dual values
// (y, z) via the α/β bookkeeping of the dual-fitting analysis
// (Lemmas 4.2-4.4), yielding:
//
//   Theorem 4.5: the result is (PP)-feasible, computed in O(t²) rounds, with
//   Σx_i ≤ t·((Δ+1)^{2/t} + (Δ+1)^{1/t}) · OPT_f, and the raw dual (y, z) is
//   (DP)-feasible after division by κ = t(Δ+1)^{1/t}.
//
// This file is the *centralized mirror*: it performs exactly the computation
// the per-node sim::Process (lp_kmds_process.h) performs — including the
// fixed-point quantization of values carried in messages — but in plain
// loops, so large parameter sweeps don't pay simulator overhead. Tests
// assert the two produce identical solutions.
#pragma once

#include <cstdint>

#include "domination/domination.h"
#include "domination/fractional.h"
#include "graph/graph.h"

namespace ftc::obs {
class PerfPlane;
}

namespace ftc::algo {

/// What each node knows about the maximum degree Δ (the paper's Remark at
/// the end of Section 4.2 notes the global-Δ assumption can be removed
/// using the techniques of [16, 11]).
enum class DegreeKnowledge {
  /// Every node knows the global Δ (the paper's baseline assumption).
  kGlobal,
  /// Every node uses the maximum degree within its 2-hop neighborhood,
  /// learned in a 2-round warm-up. Primal feasibility is unaffected (the
  /// final forcing iteration uses exponent 0 regardless of the base), and
  /// the measured quality matches the global variant closely (bench A7);
  /// the dual (y, z) accounting, however, is heterogeneous and its
  /// Lemma 4.4 guarantee no longer applies — dual_bound() must not be used
  /// as an OPT_f certificate in this mode.
  kTwoHop,
};

/// Parameters of Algorithm 1.
struct LpOptions {
  /// The paper's trade-off parameter t (≥ 1): t² iterations, ratio
  /// t((Δ+1)^{2/t} + (Δ+1)^{1/t}).
  int t = 3;

  /// When true (default), values exchanged "between nodes" pass through the
  /// same fixed-point word encoding the distributed processes transmit, so
  /// mirror and simulator agree bit-for-bit. When false, full doubles are
  /// used everywhere (pure-math variant for numerical comparisons).
  bool quantize_messages = true;

  /// Degree knowledge model (see DegreeKnowledge). kTwoHop adds 2 warm-up
  /// rounds in the distributed implementation.
  DegreeKnowledge degree_knowledge = DegreeKnowledge::kGlobal;

  /// ThreadPool width for the mirror's per-phase node loops (1 = fully
  /// sequential, no pool). Every width runs the same body, including the
  /// white-frontier coloring pass and the raiser push. The solver's output
  /// is bitwise identical at any width: every loop writes only node-owned
  /// state and its block's own segment of the white/gray/raiser lists
  /// between barriers, the node-block decomposition is independent of the
  /// thread count, the single reduction (Lemma 4.1's max) merges per-block
  /// maxima in block order, and the dynamic-degree decrements and λ resets
  /// run on the calling thread after the push's barrier (DESIGN.md §11).
  int threads = 1;

  /// Nodes per parallel task (0 = default 8192). Exposed so determinism
  /// tests can force multi-block execution on tiny graphs; leave at 0
  /// otherwise.
  int parallel_block = 0;

  /// Optional perf-attribution sink (obs/perf.h). Each (p, q) inner
  /// iteration reports its phase wall times (x-update, dual/coloring,
  /// degree decrements) as one perf "round", the final z-pass as one more,
  /// and the block pool's barrier/claim counters are drained per iteration.
  /// Timing lives entirely in PerfPlane side state, so attaching a sink
  /// cannot affect the solution. Null (the default) = no timing at all.
  obs::PerfPlane* perf = nullptr;
};

/// Everything Algorithm 1 produces, plus audit data for experiment E10.
struct LpResult {
  domination::FractionalSolution primal;  ///< the fractional solution x
  domination::DualSolution dual;          ///< raw dual; feasible only /κ
  double kappa = 1.0;                     ///< t(Δ+1)^{1/t} (Lemma 4.4)
  std::int64_t rounds = 0;                ///< synchronous rounds consumed

  /// Largest δ̃_i/(Δ+1)^{(p+1)/t} observed over nodes with x_i < 1 at any
  /// x-update step — Lemma 4.1 asserts this never exceeds 1.
  double max_lemma41_ratio = 0.0;

  /// The raw dual divided by κ — (DP)-feasible by Lemma 4.4, hence a valid
  /// lower bound on OPT_f by weak duality.
  [[nodiscard]] domination::DualSolution scaled_dual() const;

  /// Weak-duality lower bound on OPT_f: objective of scaled_dual().
  [[nodiscard]] double dual_bound(const domination::Demands& demands) const;
};

/// Tolerance for the gray-coloring test c_i ≥ k_i. With exact reals the
/// comparison is exact (the paper's setting); with fixed-point message
/// quantization a node whose demand equals its closed-neighborhood size
/// would otherwise miss graying by ~1e-10 of accumulated rounding, leaving
/// y = 0 and a negative z. The epsilon is far below any genuine x-increment
/// (the smallest is (Δ+1)^{-(t-1)/t}), so it can never gray a node early.
inline constexpr double kCoverageEps = 1e-6;

/// One closed-neighborhood slot of Algorithm 1's dual bookkeeping: α and β
/// of one arc. Both are added together and read together, so they share a
/// cache line in the mirror's arena and in each process's row.
struct AlphaBeta {
  double alpha = 0.0;
  double beta = 0.0;
};

/// Theorem 4.5's approximation-ratio bound t((Δ+1)^{2/t} + (Δ+1)^{1/t}).
[[nodiscard]] double theorem45_bound(int t, graph::NodeId max_degree);

/// Rounds Algorithm 1 consumes for parameter t: 2 per inner iteration plus
/// a final 2-round exchange computing the z-values.
[[nodiscard]] std::int64_t lp_round_count(int t);

/// Entry e of Algorithm 1's power row for base d1 = Δ+1 and parameter t:
/// (Δ+1)^{e/t} for e ∈ [−(t−1), t], bitwise std::pow(d1, double(e) / t).
/// e = p ≥ 0 gives the thresholds (Δ+1)^{p/t}; e = −q gives the increments
/// and y-values (Δ+1)^{−q/t}. The mirror's tables and the process both read
/// their powers here. A per-thread memo of the last (d1, t) computes each
/// entry on first use, so under global Δ a network pays each std::pow once
/// per worker thread, and under kTwoHop, where the base changes from node
/// to node, a lookup costs at most the one call it replaces. Rows with
/// t > 32 bypass the memo.
[[nodiscard]] double lp_power(double d1, int t, int e);

/// Per-node Δ_v + 1 where Δ_v is the maximum degree within v's closed
/// 2-hop neighborhood — what the kTwoHop warm-up computes distributively.
[[nodiscard]] std::vector<double> two_hop_d1(const graph::Graph& g);

/// Runs the centralized mirror of Algorithm 1 (optimized: precomputed
/// power tables, one flat CSR-indexed arena of α/β pairs, optionally
/// pool-parallel phase loops — see lp_kmds.cpp).
/// Preconditions: demands.size() == g.n(), t >= 1.
[[nodiscard]] LpResult solve_fractional_kmds(const graph::Graph& g,
                                             const domination::Demands& demands,
                                             const LpOptions& options = {});

/// The pre-optimization solver kept verbatim (lp_kmds_reference.cpp) as
/// the correctness anchor and benchmark baseline: solve_fractional_kmds
/// must match it bitwise (options.threads/parallel_block are ignored — the
/// reference is always sequential).
[[nodiscard]] LpResult solve_fractional_kmds_reference(
    const graph::Graph& g, const domination::Demands& demands,
    const LpOptions& options = {});

}  // namespace ftc::algo
