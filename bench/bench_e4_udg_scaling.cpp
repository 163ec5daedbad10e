// E4 — Theorem 5.7: Algorithm 3 runs in O(log log n) rounds and yields an
// expected O(1)-approximation in unit disk graphs.
//
// n-sweep at fixed density: we report
//   * Part I paper rounds R (exactly ⌈log_{3/2} log₂ n⌉ — doubly
//     logarithmic growth),
//   * the measured simulator rounds of the faithful distributed process
//     (2R + 3·Part II iterations),
//   * the approximation ratio |S| / lower bound for several k.
//
// Expected shape: R grows like log log n (5..8 across three orders of
// magnitude); the ratio stays flat in n and the k-dependence is linear
// (the optimum itself grows with k, so the *ratio* stays O(1)).
#include "bench_common.h"

#include "algo/baseline/greedy.h"
#include "algo/udg/udg_kmds.h"
#include "algo/udg/udg_kmds_process.h"
#include "domination/bounds.h"
#include "geom/udg.h"
#include "sim/network.h"
#include "util/rng.h"

int run(const ftc::util::Args& args) {
  using namespace ftc;
  const int seeds = static_cast<int>(args.get_int("seeds", 5, 1, INT32_MAX));
  const double degree = args.get_double("degree", 15.0);
  const auto sizes =
      args.get_int_list("sizes", {100, 300, 1000, 3000, 10000, 30000},
                        2, INT32_MAX);
  const auto k_values = args.get_int_list("k", {1, 2, 4}, 1, INT32_MAX);
  const auto sim_limit = args.get_int("sim-limit", 2000, 0, INT32_MAX);

  bench::Output out({"n", "k", "R(loglog n)", "sim_rounds", "p2_iters",
                     "|S1|", "|S|", "lower_bnd", "ratio"},
                    args);

  for (long long n : sizes) {
    for (long long k : k_values) {
      util::RunningStats sim_rounds, iters, s1, s_final, lb_stats, ratio;
      for (int s = 0; s < seeds; ++s) {
        const std::uint64_t seed = 500 + static_cast<std::uint64_t>(n) * 31 +
                                   static_cast<std::uint64_t>(s);
        util::Rng rng(seed);
        const auto udg = geom::uniform_udg_with_degree(
            static_cast<graph::NodeId>(n), degree, rng);
        algo::UdgOptions opts;
        opts.k = static_cast<std::int32_t>(k);
        const auto result = algo::solve_udg_kmds(udg, opts, seed);

        const auto d = domination::uniform_demands(
            udg.n(), static_cast<std::int32_t>(k));
        const auto greedy = algo::greedy_kmds(
            udg.graph, domination::clamp_demands(udg.graph, d));
        const double lb = domination::best_lower_bound(
            udg.graph, domination::clamp_demands(udg.graph, d),
            static_cast<std::int64_t>(greedy.set.size()));
        s1.add(static_cast<double>(result.part1_leaders.size()));
        s_final.add(static_cast<double>(result.leaders.size()));
        lb_stats.add(lb);
        ratio.add(static_cast<double>(result.leaders.size()) / lb);
        iters.add(static_cast<double>(result.part2_iterations));

        // Faithful simulator run (smaller n only; the mirror is proven
        // equivalent by the test suite).
        if (n <= sim_limit) {
          sim::SyncNetwork net(udg, seed);
          algo::run_udg_processes(net, opts);
          sim_rounds.add(static_cast<double>(net.round()));
        }
      }
      out.row({util::fmt(n), util::fmt(k),
               util::fmt(algo::udg_part1_rounds(
                   static_cast<graph::NodeId>(n))),
               sim_rounds.count() > 0 ? util::fmt(sim_rounds.mean(), 1) : "-",
               util::fmt(iters.mean(), 1), util::fmt(s1.mean(), 1),
               util::fmt(s_final.mean(), 1), util::fmt(lb_stats.mean(), 1),
               util::fmt(ratio.mean(), 3)});
    }
    out.rule();
  }

  out.print(
      "E4 (Theorem 5.7) - Algorithm 3 scaling on uniform UDGs\n"
      "avg degree ~" + util::fmt(degree, 0) + ", " + std::to_string(seeds) +
      " seeds; R = Part I paper rounds; sim_rounds = faithful simulator");
  return 0;
}

int main(int argc, char** argv) {
  return ftc::util::run_cli(argc, argv, run);
}
