// E3 — Remark after Theorem 4.6: with t = Θ(logΔ), the full pipeline
// (Algorithm 1 + Algorithm 2) achieves an O(logΔ)-ish integral
// approximation in O(log²Δ) rounds.
//
// n-sweep over sparse G(n,p): t is set to ⌈log₂(Δ+1)⌉ per instance; we
// report the end-to-end integral ratio against the best lower bound, the
// per-instance O(log²Δ) round count, and — on small n — the true ratio
// against the exact optimum.
//
// Expected shape: the ratio stays bounded (it does not grow with n), and
// rounds grow only with log²Δ, not with n.
#include "bench_common.h"

#include <cmath>

#include "algo/baseline/greedy.h"
#include "algo/exact/exact.h"
#include "algo/pipeline.h"
#include "domination/bounds.h"
#include "graph/generators.h"
#include "util/rng.h"

int run(const ftc::util::Args& args) {
  using namespace ftc;
  const int seeds = static_cast<int>(args.get_int("seeds", 5, 1, INT32_MAX));
  const auto k = static_cast<std::int32_t>(args.get_int("k", 2, 1, INT32_MAX));
  const auto sizes = args.get_int_list(
      "sizes", {100, 200, 400, 800, 1600, 3200}, 2, INT32_MAX);

  bench::Output out({"n", "Delta", "t=ceil(lgD)", "rounds", "|S|", "lower_bnd",
                     "ratio", "exact_ratio"},
                    args);

  for (long long n : sizes) {
    util::RunningStats size_stats, lb_stats, ratio_stats, exact_ratio_stats,
        rounds_stats, delta_stats, t_stats;
    bool have_exact = false;
    for (int s = 0; s < seeds; ++s) {
      util::Rng rng(7000 + static_cast<std::uint64_t>(n) * 17 +
                    static_cast<std::uint64_t>(s));
      const graph::Graph g = graph::gnp(
          static_cast<graph::NodeId>(n),
          10.0 / static_cast<double>(n - 1), rng);
      const auto d = domination::clamp_demands(
          g, domination::uniform_demands(g.n(), k));
      const int t = std::max(
          1, static_cast<int>(std::ceil(
                 std::log2(static_cast<double>(g.max_degree()) + 1.0))));

      algo::PipelineOptions opts;
      opts.t = t;
      opts.seed = static_cast<std::uint64_t>(s);
      const auto pipe = algo::run_kmds_pipeline(g, d, opts);

      const auto greedy = algo::greedy_kmds(g, d);
      const double lb = domination::best_lower_bound(
          g, d, static_cast<std::int64_t>(greedy.set.size()),
          pipe.lp.dual_bound(d));
      size_stats.add(static_cast<double>(pipe.set().size()));
      lb_stats.add(lb);
      ratio_stats.add(static_cast<double>(pipe.set().size()) / lb);
      rounds_stats.add(static_cast<double>(pipe.total_rounds));
      delta_stats.add(static_cast<double>(g.max_degree()));
      t_stats.add(t);

      if (n <= 30) {
        const auto exact = algo::exact_kmds(g, d);
        if (exact.optimal && !exact.set.empty()) {
          exact_ratio_stats.add(static_cast<double>(pipe.set().size()) /
                                static_cast<double>(exact.set.size()));
          have_exact = true;
        }
      }
    }
    out.row({util::fmt(n), util::fmt(delta_stats.mean(), 1),
             util::fmt(t_stats.mean(), 1), util::fmt(rounds_stats.mean(), 0),
             util::fmt(size_stats.mean(), 1), util::fmt(lb_stats.mean(), 1),
             util::fmt(ratio_stats.mean(), 3),
             have_exact ? util::fmt(exact_ratio_stats.mean(), 3) : "-"});
  }

  out.print(
      "E3 (Remark 4.2) - end-to-end pipeline at t = ceil(log2(Delta+1))\n"
      "sparse G(n,p) with average degree ~10, k=" + std::to_string(k) + ", " +
      std::to_string(seeds) + " seeds");
  return 0;
}

int main(int argc, char** argv) {
  return ftc::util::run_cli(argc, argv, run);
}
