// E10 — Lemma 4.1 and Lemma 4.4: the internal invariants of Algorithm 1's
// dual-fitting analysis, measured rather than assumed.
//
//   * Lemma 4.1: while x_i < 1, the dynamic degree obeys
//     δ̃_i ≤ (Δ+1)^{(p+1)/t}. We report the worst observed
//     δ̃_i/(Δ+1)^{(p+1)/t} (must be ≤ 1).
//   * Lemma 4.4: the raw dual violates (DP) by at most κ = t(Δ+1)^{1/t}.
//     We report max_i(Σ y_j − z_i)/κ (must be ≤ 1) and how much of the
//     allowance is actually used.
//   * Weak duality: the scaled dual objective is a valid OPT_f lower
//     bound; we report its quality relative to the packing/greedy bounds.
//
// Expected shape: both normalized invariants stay ≤ 1 with real slack; the
// dual bound is the strongest available lower bound on denser graphs.
#include "bench_common.h"

#include "algo/baseline/greedy.h"
#include "algo/lp/lp_kmds.h"
#include "domination/bounds.h"
#include "domination/lp_solver.h"
#include "graph/generators.h"
#include "util/rng.h"

int run(const ftc::util::Args& args) {
  using namespace ftc;
  const int seeds = static_cast<int>(args.get_int("seeds", 5, 1, INT32_MAX));
  const auto n =
      static_cast<graph::NodeId>(args.get_int("n", 300, 2, INT32_MAX));
  const auto k = static_cast<std::int32_t>(args.get_int("k", 2, 1, INT32_MAX));
  const auto lp_pivots = args.get_int("lp-pivots", 40000, 1, INT32_MAX);
  const auto t_values = args.get_int_list("t", {1, 2, 3, 5, 8}, 1, INT32_MAX);
  const auto degrees = args.get_int_list("degrees", {6, 20}, 1, INT32_MAX);

  bench::Output out({"avg_deg", "t", "lemma4.1_use", "dual_lhs/kappa",
                     "dual_bnd", "packing_bnd", "greedy/H_bnd", "OPT_f",
                     "dual/OPT_f"},
                    args);

  for (long long degree : degrees) {
    for (long long t : t_values) {
      util::RunningStats lemma41, lhs_frac, dual_b, packing_b, greedy_b,
          opt_f_stats, dual_quality;
      for (int s = 0; s < seeds; ++s) {
        util::Rng rng(3000 + static_cast<std::uint64_t>(s) +
                      static_cast<std::uint64_t>(degree));
        const graph::Graph g = graph::gnp(
            n, static_cast<double>(degree) / static_cast<double>(n - 1),
            rng);
        const auto d = domination::clamp_demands(
            g, domination::uniform_demands(g.n(), k));
        algo::LpOptions opts;
        opts.t = static_cast<int>(t);
        const auto lp = algo::solve_fractional_kmds(g, d, opts);

        lemma41.add(lp.max_lemma41_ratio);
        lhs_frac.add(domination::max_dual_lhs(g, lp.dual) / lp.kappa);

        const double dual_bound = lp.dual_bound(d);
        const double packing = static_cast<double>(
            domination::packing_lower_bound(g, d));
        const auto greedy = algo::greedy_kmds(g, d);
        const double greedy_bound =
            static_cast<double>(greedy.set.size()) /
            domination::harmonic(g.max_degree() + 1);
        dual_b.add(dual_bound);
        packing_b.add(packing);
        greedy_b.add(greedy_bound);

        const auto opt_f = domination::solve_lp_exact(g, d, lp_pivots);
        if (opt_f.feasible && !opt_f.iteration_limit_hit) {
          opt_f_stats.add(opt_f.objective);
          dual_quality.add(dual_bound / opt_f.objective);
        }
      }
      out.row({util::fmt(degree), util::fmt(t), util::fmt(lemma41.mean(), 3),
               util::fmt(lhs_frac.mean(), 3), util::fmt(dual_b.mean(), 1),
               util::fmt(packing_b.mean(), 1), util::fmt(greedy_b.mean(), 1),
               util::fmt(opt_f_stats.mean(), 1),
               util::fmt(dual_quality.mean(), 3)});
    }
    out.rule();
  }

  out.print(
      "E10 (Lemmas 4.1/4.4) - dual-fitting invariants of Algorithm 1\n"
      "n=" + std::to_string(n) + ", k=" + std::to_string(k) + ", " +
      std::to_string(seeds) +
      " seeds; both *_use columns must stay <= 1.000");
  return 0;
}

int main(int argc, char** argv) {
  return ftc::util::run_cli(argc, argv, run);
}
