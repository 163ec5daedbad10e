#include "algo/udg/udg_kmds.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/rng.h"

namespace ftc::algo {

using graph::NodeId;

std::int64_t udg_part1_rounds_ex(NodeId n, double xi) {
  assert(xi > 1.0);
  if (n < 4) return 1;
  const double log2n = std::log2(static_cast<double>(n));
  const double log2xi = std::log2(xi);
  return std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::ceil(std::log2(log2n) / log2xi)));
}

double udg_initial_theta_ex(NodeId n, double xi, double theta_scale) {
  assert(xi > 1.0 && theta_scale > 0.0);
  if (n < 4) return 0.5;
  const double log2n = std::log2(static_cast<double>(n));
  const double log2xi = std::log2(xi);
  const double theta1 =
      theta_scale * 0.5 * std::pow(log2n, -1.0 / log2xi);
  // Clamp so the final round's radius θ₁·2^{R-1} stays within 1/2 (the
  // probe must never exceed the communication radius).
  const auto rounds = udg_part1_rounds_ex(n, xi);
  const double last_factor =
      std::pow(2.0, static_cast<double>(rounds - 1));
  return std::min(theta1, 0.5 / last_factor);
}

std::int64_t udg_part1_rounds(NodeId n) { return udg_part1_rounds_ex(n, 1.5); }

double udg_initial_theta(NodeId n) {
  return udg_initial_theta_ex(n, 1.5, 1.0);
}

std::uint64_t udg_id_range(NodeId n) {
  const auto nn = static_cast<unsigned __int128>(std::max<NodeId>(n, 2));
  const unsigned __int128 fourth = nn * nn * nn * nn;
  const unsigned __int128 cap = static_cast<unsigned __int128>(1) << 62;
  return static_cast<std::uint64_t>(fourth < cap ? fourth : cap);
}

UdgSchedule udg_schedule(NodeId n, const UdgOptions& options) {
  struct Memo {
    NodeId n = -1;  // no network has -1 nodes: a fresh memo never hits
    double xi = 0.0;
    double theta_scale = 0.0;
    UdgSchedule schedule;
  };
  thread_local Memo memo;
  if (memo.n != n || memo.xi != options.xi ||
      memo.theta_scale != options.theta_scale) {
    memo = {n, options.xi, options.theta_scale,
            {udg_part1_rounds_ex(n, options.xi), udg_id_range(n),
             udg_initial_theta_ex(n, options.xi, options.theta_scale)}};
  }
  return memo.schedule;
}

UdgResult solve_udg_kmds(const geom::UnitDiskGraph& udg,
                         const UdgOptions& options, std::uint64_t seed) {
  assert(options.k >= 1);
  const graph::Graph& g = udg.graph;
  const auto n = static_cast<std::size_t>(g.n());

  UdgResult result;
  if (n == 0) return result;

  const UdgSchedule schedule = udg_schedule(g.n(), options);
  const std::int64_t rounds = schedule.part1_rounds;
  const std::uint64_t id_max = schedule.id_max;
  result.part1_rounds = rounds;

  // Per-node random streams identical to the simulator's.
  std::vector<util::Rng> rngs;
  rngs.reserve(n);
  const util::Rng root(seed);
  for (std::size_t v = 0; v < n; ++v) rngs.push_back(root.split(v));

  // ---- Part I: leader election with doubling probe radius. ----
  std::vector<std::uint8_t> active(n, 1);
  std::vector<std::uint64_t> id(n, 0);
  std::vector<std::uint8_t> elected(n, 0);
  double theta = schedule.theta1;

  for (std::int64_t r = 0; r < rounds; ++r) {
    // Fresh ids for active nodes (passive nodes stopped executing Part I
    // and draw nothing — keeps mirror and process streams aligned).
    for (std::size_t v = 0; v < n; ++v) {
      if (active[v]) id[v] = rngs[v].uniform_u64(1, id_max);
    }
    std::fill(elected.begin(), elected.end(), 0);
    // Every active node elects the highest-id active node within θ
    // (ties broken toward the larger node id), possibly itself. "Within θ"
    // is the sensed distance compared with θ, the process's own test;
    // comparing squares instead disagrees when the distance rounds to θ.
    for (NodeId v = 0; v < g.n(); ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (!active[vi]) continue;
      NodeId best = v;
      std::uint64_t best_id = id[vi];
      for (NodeId w : g.neighbors(v)) {
        const auto wi = static_cast<std::size_t>(w);
        if (!active[wi] || udg.distance(v, w) > theta) continue;
        if (id[wi] > best_id || (id[wi] == best_id && w > best)) {
          best = w;
          best_id = id[wi];
        }
      }
      elected[static_cast<std::size_t>(best)] = 1;
    }
    // Active nodes elected by nobody become passive.
    std::int64_t still_active = 0;
    for (std::size_t v = 0; v < n; ++v) {
      if (active[v] && !elected[v]) active[v] = 0;
      if (active[v]) ++still_active;
    }
    result.active_after_round.push_back(still_active);
    theta *= 2.0;
  }

  std::vector<std::uint8_t> leader = active;  // survivors become leaders
  for (std::size_t v = 0; v < n; ++v) {
    if (leader[v]) result.part1_leaders.push_back(static_cast<NodeId>(v));
  }

  // ---- Part II: extend to a k-fold dominating set. ----
  const std::int32_t k = options.k;
  auto coverage_of = [&](NodeId v) {
    const auto vi = static_cast<std::size_t>(v);
    std::int32_t c = leader[vi] ? 1 : 0;
    for (NodeId w : g.neighbors(v)) {
      c += leader[static_cast<std::size_t>(w)] ? 1 : 0;
    }
    return c;
  };

  while (true) {
    // Deficient = non-leader with coverage below k. (Members need no
    // coverage under the paper's Section-1 definition.)
    std::vector<std::uint8_t> deficient(n, 0);
    bool any_deficient = false;
    for (NodeId v = 0; v < g.n(); ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (!leader[vi] && coverage_of(v) < k) {
        deficient[vi] = 1;
        any_deficient = true;
      }
    }
    if (!any_deficient) break;

    // Each leader selects up to k lowest-id deficient closed neighbors and
    // promotes them — synchronously (all selections read this iteration's
    // deficiency snapshot).
    std::vector<std::uint8_t> promoted(n, 0);
    bool any_promoted = false;
    for (NodeId v = 0; v < g.n(); ++v) {
      if (!leader[static_cast<std::size_t>(v)]) continue;
      // Leaders select independently (a distributed leader cannot see other
      // leaders' selections): the k lowest-id deficient neighbors each.
      std::int32_t budget = k;
      for (NodeId w : g.neighbors(v)) {  // ascending ids
        if (budget <= 0) break;
        const auto wi = static_cast<std::size_t>(w);
        if (deficient[wi]) {
          promoted[wi] = 1;
          any_promoted = true;
          --budget;
        }
      }
    }
    if (!any_promoted) {
      // Every deficient node is isolated from all leaders — possible only
      // when its whole closed neighborhood is smaller than k (infeasible)
      // or it has no leader neighbor (cannot happen by Lemma 5.1).
      result.fully_satisfied = false;
      break;
    }
    for (std::size_t v = 0; v < n; ++v) {
      if (promoted[v]) leader[v] = 1;
    }
    ++result.part2_iterations;
  }

  for (std::size_t v = 0; v < n; ++v) {
    if (leader[v]) result.leaders.push_back(static_cast<NodeId>(v));
  }
  return result;
}

}  // namespace ftc::algo
