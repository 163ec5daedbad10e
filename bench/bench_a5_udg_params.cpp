// A5 (ablation) — sensitivity of Algorithm 3 to its constants.
//
// The paper fixes ξ = 3/2 (round count ⌈log_ξ log₂ n⌉) and the initial
// probe radius θ₁ = ½(log₂ n)^{-1/log₂ξ} without discussing alternatives.
// This ablation sweeps both:
//   * ξ controls the time/quality trade within Part I: smaller ξ = more
//     rounds = more elimination sweeps; larger ξ = fewer rounds.
//   * θ-scale grows or shrinks the early probe radii (clamped so the final
//     probe stays within the radio range).
// We report Part-I rounds, Part-I leader counts, and the final ratio.
//
// Expected: the paper's ξ = 1.5 sits on a flat sweet spot — more rounds
// (ξ→1.2) barely improve the leader count, fewer (ξ→3) visibly hurt;
// larger θ₁ trades nothing (the doubling schedule dominates).
#include "bench_common.h"

#include "algo/baseline/greedy.h"
#include "algo/udg/udg_kmds.h"
#include "domination/bounds.h"
#include "geom/udg.h"
#include "util/rng.h"

int run(const ftc::util::Args& args) {
  using namespace ftc;
  const int seeds = static_cast<int>(args.get_int("seeds", 5, 1, INT32_MAX));
  const auto n =
      static_cast<graph::NodeId>(args.get_int("n", 3000, 2, INT32_MAX));
  const auto k = static_cast<std::int32_t>(args.get_int("k", 2, 1, INT32_MAX));

  bench::Output out({"xi", "theta_scale", "R", "|S1|", "|S|", "ratio"},
                    args);

  for (double xi : {1.2, 1.5, 2.0, 3.0}) {
    for (double theta_scale : {0.5, 1.0, 2.0}) {
      util::RunningStats s1, s_final, ratio;
      std::int64_t rounds = 0;
      for (int s = 0; s < seeds; ++s) {
        const std::uint64_t seed = 61 + static_cast<std::uint64_t>(s);
        util::Rng rng(seed);
        const auto udg = geom::uniform_udg_with_degree(n, 15.0, rng);
        algo::UdgOptions opts;
        opts.k = k;
        opts.xi = xi;
        opts.theta_scale = theta_scale;
        const auto result = algo::solve_udg_kmds(udg, opts, seed);
        rounds = result.part1_rounds;
        s1.add(static_cast<double>(result.part1_leaders.size()));
        s_final.add(static_cast<double>(result.leaders.size()));

        const auto d = domination::clamp_demands(
            udg.graph, domination::uniform_demands(udg.n(), k));
        const auto greedy = algo::greedy_kmds(udg.graph, d);
        const double lb = domination::best_lower_bound(
            udg.graph, d, static_cast<std::int64_t>(greedy.set.size()));
        ratio.add(static_cast<double>(result.leaders.size()) / lb);
      }
      out.row({util::fmt(xi, 1), util::fmt(theta_scale, 1),
               util::fmt(rounds), util::fmt(s1.mean(), 0),
               util::fmt(s_final.mean(), 0), util::fmt(ratio.mean(), 2)});
    }
    out.rule();
  }

  out.print(
      "A5 (ablation) - Algorithm 3 constants (paper: xi=1.5, scale=1.0)\n"
      "uniform UDG n=" + std::to_string(n) + ", k=" + std::to_string(k) +
      ", " + std::to_string(seeds) + " seeds");
  return 0;
}

int main(int argc, char** argv) {
  return ftc::util::run_cli(argc, argv, run);
}
