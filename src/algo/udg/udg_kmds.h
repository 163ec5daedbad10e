// Algorithm 3 of the paper: O(log log n)-time k-fold dominating set in unit
// disk graphs (Section 5) — centralized mirror.
//
// Part I (Gao et al. [7]-style leader election, rounds r_1..r_R with
// R = ⌈log_{3/2} log₂ n⌉): every node starts *active* with probe radius
// θ = ½·(log₂ n)^{-1/log₂(3/2)}. In each round, every active node draws a
// fresh random id from [1, n⁴] and elects the highest-id active node within
// distance θ (possibly itself); nodes elected by nobody become passive and
// stop. θ doubles every round. Survivors after round R are *leaders*, and
// they form an ordinary dominating set (Lemma 5.1) of expected O(1) size per
// unit disk (Lemma 5.5).
//
// Part II (the paper's fault-tolerance extension): every node learns which
// closed neighbors are leaders, giving its coverage c(v). While some leader
// v sees a *deficient* neighbor (a non-leader u with c(u) < k), it selects
// up to k lowest-id deficient neighbors and promotes them to leaders.
// Leaders per 1/2-radius disk stay O(k) in expectation (Lemma 5.6), so the
// result is an expected O(1)-approximation of k-MDS (Theorem 5.7). The
// output satisfies the paper's Section-1 definition: every NON-member has
// ≥ k member neighbors (domination::Mode::kOpenForNonMembers).
//
// The mirror draws node v's ids from Rng(seed).split(v), exactly the stream
// the simulator hands the corresponding process, so both implementations
// elect identical leader sets.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/udg.h"
#include "graph/graph.h"

namespace ftc::algo {

/// Tuning/audit parameters of Algorithm 3. The defaults are the paper's
/// constants; `xi` and `theta_scale` exist for the A5 ablation that probes
/// how sensitive the algorithm is to them.
struct UdgOptions {
  std::int32_t k = 1;  ///< fold parameter (uniform demand)

  /// The paper's ξ (default 3/2): Part I runs ⌈log_ξ log₂ n⌉ rounds and
  /// the initial radius is ½(log₂ n)^{-1/log₂ ξ}. Must be > 1.
  double xi = 1.5;

  /// Multiplier on the initial probe radius θ₁ (the paper uses 1). The
  /// probe radius is still clamped so the final round's θ stays ≤ 1/2.
  double theta_scale = 1.0;
};

/// Outcome of Algorithm 3.
struct UdgResult {
  std::vector<graph::NodeId> leaders;  ///< final k-fold dominating set

  std::vector<graph::NodeId> part1_leaders;  ///< dominating set after Part I
  std::int64_t part1_rounds = 0;   ///< paper rounds in Part I (R)
  std::int64_t part2_iterations = 0;  ///< while-loop iterations in Part II

  /// Number of active nodes after each Part-I round (index 0 = after r_1);
  /// the doubly-exponential decay behind the O(log log n) bound.
  std::vector<std::int64_t> active_after_round;

  /// True when Part II satisfied every node; false only when some node's
  /// demand exceeded its closed neighborhood (infeasible residue).
  bool fully_satisfied = true;
};

/// R = ⌈log_{3/2} log₂ n⌉, clamped to ≥ 1 (and defined as 1 for n < 4).
[[nodiscard]] std::int64_t udg_part1_rounds(graph::NodeId n);

/// Initial probe radius θ₁ = ½·(log₂ n)^{-1/log₂(3/2)} (=: ½ for n < 4).
[[nodiscard]] double udg_initial_theta(graph::NodeId n);

/// Generalized variants for non-default ξ / θ-scale (A5 ablation). With
/// xi = 1.5 and theta_scale = 1 they reduce to the functions above. The
/// initial radius is clamped so θ in the final Part-I round stays ≤ 1/2
/// (the probing range must remain within the communication radius).
[[nodiscard]] std::int64_t udg_part1_rounds_ex(graph::NodeId n, double xi);
[[nodiscard]] double udg_initial_theta_ex(graph::NodeId n, double xi,
                                          double theta_scale);

/// Upper bound of the per-round random id range: min(n⁴, 2⁶²).
[[nodiscard]] std::uint64_t udg_id_range(graph::NodeId n);

/// Algorithm 3's global schedule: what every node derives from n and the
/// options alone.
struct UdgSchedule {
  std::int64_t part1_rounds = 0;  ///< R: udg_part1_rounds_ex(n, ξ)
  std::uint64_t id_max = 0;       ///< udg_id_range(n)
  double theta1 = 0.0;            ///< udg_initial_theta_ex(n, ξ, θ-scale)
};

/// The schedule for n nodes under `options`, bitwise the three functions
/// above. It is the one source of those values for the mirror, the process
/// and udg_round_budget. Every node of a network asks for the same
/// schedule, so a per-thread memo of the last (n, ξ, θ-scale) makes a
/// network pay the libm calls once per worker thread, not once per node.
[[nodiscard]] UdgSchedule udg_schedule(graph::NodeId n,
                                       const UdgOptions& options);

/// Runs the centralized mirror of Algorithm 3 on `udg`. `seed` must equal
/// the SyncNetwork seed for mirror/simulator equality.
[[nodiscard]] UdgResult solve_udg_kmds(const geom::UnitDiskGraph& udg,
                                       const UdgOptions& options,
                                       std::uint64_t seed);

}  // namespace ftc::algo
