// E1 — Theorem 4.5: the time/approximation trade-off of Algorithm 1.
//
// For each graph family, fold parameter k, and trade-off parameter t, run
// the fractional LP approximation and report
//   * the TRUE approximation ratio: fractional objective / OPT_f, where
//     OPT_f is computed exactly by the simplex solver (n ≤ --lp-limit),
//   * Theorem 4.5's guarantee t((Δ+1)^{2/t} + (Δ+1)^{1/t}),
//   * the exact synchronous round count 2t² + 2.
// For n above --lp-limit the denominator falls back to the best lower
// bound, making the reported ratio an upper bound on the true one.
//
// Expected shape (paper): the guarantee falls steeply as t grows (towards
// 2t for t ≈ logΔ); the measured ratio sits far below the guarantee and
// improves (or stays flat) with t, while round cost grows quadratically.
#include "bench_common.h"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "algo/baseline/greedy.h"
#include "algo/lp/lp_kmds.h"
#include "domination/bounds.h"
#include "domination/lp_solver.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace {

using namespace ftc;
using graph::Graph;

Graph make_graph(const std::string& family, graph::NodeId n,
                 std::uint64_t seed) {
  util::Rng rng(seed);
  if (family == "gnp") return graph::gnp(n, 12.0 / static_cast<double>(n), rng);
  if (family == "powerlaw") return graph::barabasi_albert(n, 3, rng);
  if (family == "grid") {
    const auto side = static_cast<graph::NodeId>(std::sqrt(n));
    return graph::grid(side, side);
  }
  throw std::invalid_argument("unknown family " + family);
}

}  // namespace

int run(const ftc::util::Args& args) {
  const int seeds = static_cast<int>(args.get_int("seeds", 5, 1, INT32_MAX));
  const auto n =
      static_cast<graph::NodeId>(args.get_int("n", 300, 2, INT32_MAX));
  const auto t_values = args.get_int_list("t", {1, 2, 3, 4, 6, 8}, 1, INT32_MAX);
  const auto k_values = args.get_int_list("k", {1, 3}, 1, INT32_MAX);
  // Exact OPT_f via simplex up to this size (O(n³)-ish per solve), with a
  // per-solve pivot budget; instances that exceed either fall back to the
  // best combinatorial lower bound.
  const auto lp_limit = static_cast<graph::NodeId>(
      args.get_int("lp-limit", 350, 0, INT32_MAX));
  const auto lp_pivots = args.get_int("lp-pivots", 40000, 1, INT32_MAX);

  bench::Output out({"family", "k", "t", "rounds", "Delta", "frac_obj",
                     "OPT_f", "ratio", "thm4.5_bound"},
                    args);

  for (const std::string family : {"gnp", "powerlaw", "grid"}) {
    for (long long k : k_values) {
      // Per-seed instances and exact OPT_f denominators (t-independent).
      std::vector<Graph> graphs;
      std::vector<domination::Demands> demand_sets;
      std::vector<double> denominators;
      for (int s = 0; s < seeds; ++s) {
        Graph g = make_graph(family, n, 100 + static_cast<std::uint64_t>(s));
        auto d = domination::clamp_demands(
            g, domination::uniform_demands(g.n(),
                                           static_cast<std::int32_t>(k)));
        double denom = 0.0;
        if (g.n() <= lp_limit) {
          const auto opt_f = domination::solve_lp_exact(g, d, lp_pivots);
          if (opt_f.feasible && !opt_f.iteration_limit_hit) {
            denom = opt_f.objective;
          }
        }
        if (denom <= 0.0) {
          const auto greedy = algo::greedy_kmds(g, d);
          denom = domination::best_lower_bound(
              g, d, static_cast<std::int64_t>(greedy.set.size()));
        }
        graphs.push_back(std::move(g));
        demand_sets.push_back(std::move(d));
        denominators.push_back(denom);
      }

      for (long long t : t_values) {
        util::RunningStats ratio_stats, obj_stats, lb_stats, delta_stats;
        for (int s = 0; s < seeds; ++s) {
          const Graph& g = graphs[static_cast<std::size_t>(s)];
          const auto& d = demand_sets[static_cast<std::size_t>(s)];
          algo::LpOptions opts;
          opts.t = static_cast<int>(t);
          const auto lp = algo::solve_fractional_kmds(g, d, opts);
          const double denom = denominators[static_cast<std::size_t>(s)];
          ratio_stats.add(lp.primal.objective() / denom);
          obj_stats.add(lp.primal.objective());
          lb_stats.add(denom);
          delta_stats.add(static_cast<double>(g.max_degree()));
        }
        const auto delta =
            static_cast<graph::NodeId>(delta_stats.mean());
        out.row({family, util::fmt(k), util::fmt(t),
                 util::fmt(algo::lp_round_count(static_cast<int>(t))),
                 util::fmt(delta_stats.mean(), 1),
                 util::fmt(obj_stats.mean(), 2), util::fmt(lb_stats.mean(), 2),
                 util::fmt(ratio_stats.mean(), 3),
                 util::fmt(algo::theorem45_bound(static_cast<int>(t), delta),
                           1)});
      }
      out.rule();
    }
  }

  out.print(
      "E1 (Theorem 4.5) - Algorithm 1 time/approximation trade-off\n"
      "n=" + std::to_string(n) + ", " + std::to_string(seeds) +
      " seeds; ratio = fractional objective / OPT_f (exact simplex up to "
      "n=" + std::to_string(lp_limit) + ")");
  return 0;
}

int main(int argc, char** argv) {
  return ftc::util::run_cli(argc, argv, run);
}
