// E2 — Theorem 4.6: randomized rounding loses only a ln(Δ+1) + O(1) factor.
//
// Density sweep over G(n, p): for each target average degree, solve the
// fractional LP (fixed t), then round with many seeds and report
//   * E[|integral|] / fractional objective ("rounding factor"),
//   * ln(Δ+1) — the theorem's leading coefficient,
//   * the split between coin-chosen (X) and request-chosen (Y) nodes:
//     the theorem's proof bounds E[X] ≤ ln(Δ+1)·Σx and E[Y] = O(OPT).
//
// Expected shape: rounding factor tracks ln(Δ+1) + O(1) and the request
// share Y stays a small fraction of the set.
#include "bench_common.h"

#include <cmath>
#include <stdexcept>

#include "algo/lp/lp_kmds.h"
#include "algo/rounding/rounding.h"
#include "domination/domination.h"
#include "graph/generators.h"
#include "util/rng.h"

int run(const ftc::util::Args& args) {
  using namespace ftc;
  const int seeds = static_cast<int>(args.get_int("seeds", 20, 1, INT32_MAX));
  const auto n =
      static_cast<graph::NodeId>(args.get_int("n", 600, 2, INT32_MAX));
  const int t = static_cast<int>(args.get_int("t", 4, 1, INT32_MAX));
  const auto k = static_cast<std::int32_t>(args.get_int("k", 2, 1, INT32_MAX));
  const auto degrees = args.get_int_list("degrees", {4, 8, 16, 32, 64}, 1,
                                           INT32_MAX);

  bench::Output out({"avg_deg", "Delta", "ln(D+1)", "frac_obj", "E[|S|]",
                     "round_factor", "coin_X", "request_Y", "feasible%"},
                    args);

  for (long long target_degree : degrees) {
    util::Rng graph_rng(42 + static_cast<std::uint64_t>(target_degree));
    const graph::Graph g =
        graph::gnp(n, static_cast<double>(target_degree) /
                          static_cast<double>(n - 1),
                   graph_rng);
    const auto d =
        domination::clamp_demands(g, domination::uniform_demands(n, k));
    algo::LpOptions lp_opts;
    lp_opts.t = t;
    const auto lp = algo::solve_fractional_kmds(g, d, lp_opts);
    const double frac = lp.primal.objective();

    util::RunningStats size_stats, coin_stats, req_stats;
    int feasible = 0;
    for (int s = 0; s < seeds; ++s) {
      const auto rounded = algo::round_fractional(
          g, lp.primal, d, 1000 + static_cast<std::uint64_t>(s));
      size_stats.add(static_cast<double>(rounded.set.size()));
      coin_stats.add(static_cast<double>(rounded.chosen_by_coin));
      req_stats.add(static_cast<double>(rounded.chosen_by_request));
      if (domination::is_k_dominating(g, rounded.set, d)) ++feasible;
    }
    const double ln_d1 =
        std::log(static_cast<double>(g.max_degree()) + 1.0);
    out.row({util::fmt(target_degree), util::fmt(g.max_degree()),
             util::fmt(ln_d1, 2), util::fmt(frac, 1),
             util::fmt(size_stats.mean(), 1),
             util::fmt(size_stats.mean() / frac, 3),
             util::fmt(coin_stats.mean(), 1), util::fmt(req_stats.mean(), 1),
             util::fmt(100.0 * feasible / seeds, 1)});
  }

  out.print(
      "E2 (Theorem 4.6) - randomized rounding factor vs ln(Delta+1)\n"
      "n=" + std::to_string(n) + ", k=" + std::to_string(k) +
      ", t=" + std::to_string(t) + ", " + std::to_string(seeds) +
      " rounding seeds per row");
  return 0;
}

int main(int argc, char** argv) {
  return ftc::util::run_cli(argc, argv, run);
}
