// E8 — Section 2's comparison landscape: the paper's algorithms against
// the prior-work baselines on identical instances.
//
//   * Alg1+2 (this paper, general graphs): O(t²) rounds.
//   * LRG (Jia-Rajaraman-Suel 2002): expected O(log n·logΔ) rounds — the
//     only previous distributed k-MDS result in general graphs.
//   * Greedy (centralized H_Δ-approx): quality yardstick, not distributed.
//   * Alg3 (this paper, UDG): O(log log n) rounds.
//   * k-MIS clustering (Alzoubi/Wan/Frieder-style): classic UDG approach,
//     O(n) worst-case time when distributed.
//   * Exact (small n only): ground truth.
//
// Expected shape: Alg1+2 needs far fewer rounds than LRG at mildly worse
// size; on UDGs Alg3 wins the round race outright while staying O(1)-ish
// in quality.
#include "bench_common.h"

#include <cmath>

#include "algo/baseline/greedy.h"
#include "algo/baseline/lrg.h"
#include "algo/baseline/luby.h"
#include "algo/baseline/mis_clustering.h"
#include "algo/exact/exact.h"
#include "algo/pipeline.h"
#include "algo/udg/udg_kmds.h"
#include "domination/bounds.h"
#include "geom/udg.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace {

using namespace ftc;

struct Row {
  util::RunningStats size, rounds, ratio;
};

}  // namespace

int run(const ftc::util::Args& args) {
  const int seeds = static_cast<int>(args.get_int("seeds", 5, 1, INT32_MAX));
  const auto n =
      static_cast<graph::NodeId>(args.get_int("n", 800, 2, INT32_MAX));
  const auto k = static_cast<std::int32_t>(args.get_int("k", 2, 1, INT32_MAX));

  for (const std::string workload : {"gnp", "udg"}) {
    bench::Output out({"algorithm", "|S| mean", "ratio", "rounds"}, args);
    Row pipeline2, pipeline4, lrg_row, greedy_row, udg_row, mis_row,
        luby_row;

    for (int s = 0; s < seeds; ++s) {
      const std::uint64_t seed = 900 + static_cast<std::uint64_t>(s);
      util::Rng rng(seed);
      geom::UnitDiskGraph udg;
      graph::Graph g;
      if (workload == "udg") {
        udg = geom::uniform_udg_with_degree(n, 14.0, rng);
        g = udg.graph;
      } else {
        g = graph::gnp(n, 12.0 / static_cast<double>(n - 1), rng);
      }
      const auto d = domination::clamp_demands(
          g, domination::uniform_demands(g.n(), k));

      const auto greedy = algo::greedy_kmds(g, d);
      const double lb = domination::best_lower_bound(
          g, d, static_cast<std::int64_t>(greedy.set.size()));

      auto record = [&](Row& row, std::size_t size, std::int64_t rounds) {
        row.size.add(static_cast<double>(size));
        row.rounds.add(static_cast<double>(rounds));
        row.ratio.add(static_cast<double>(size) / lb);
      };

      for (int t : {2, 4}) {
        algo::PipelineOptions opts;
        opts.t = t;
        opts.seed = seed;
        const auto pipe = algo::run_kmds_pipeline(g, d, opts);
        record(t == 2 ? pipeline2 : pipeline4, pipe.set().size(),
               pipe.total_rounds);
      }
      const auto lrg = algo::lrg_kmds(g, d, seed);
      record(lrg_row, lrg.set.size(), lrg.rounds);
      record(greedy_row, greedy.set.size(),
             static_cast<std::int64_t>(greedy.set.size()));  // sequential

      if (workload == "udg") {
        algo::UdgOptions uopts;
        uopts.k = k;
        const auto alg3 = algo::solve_udg_kmds(udg, uopts, seed);
        record(udg_row, alg3.leaders.size(),
               2 * alg3.part1_rounds + 3 * (alg3.part2_iterations + 1));
        const auto mis = algo::mis_kfold(g, k);
        record(mis_row, mis.set.size(), g.n());  // O(n) sequential sweeps
        const auto luby = algo::luby_mis_kfold(g, k, seed);
        record(luby_row, luby.set.size(), luby.rounds);
      }
    }

    auto emit = [&](const std::string& name, const Row& row) {
      if (row.size.count() == 0) return;
      out.row({name, util::fmt(row.size.mean(), 1),
               util::fmt(row.ratio.mean(), 3),
               util::fmt(row.rounds.mean(), 0)});
    };
    emit("Alg1+2 t=2 (paper)", pipeline2);
    emit("Alg1+2 t=4 (paper)", pipeline4);
    emit("LRG (Jia et al.)", lrg_row);
    emit("Greedy (central)", greedy_row);
    emit("Alg3 (paper, UDG)", udg_row);
    emit("k-MIS (UDG classic)", mis_row);
    emit("Luby k-MIS (distrib)", luby_row);

    out.print("E8 (Section 2) - baseline comparison on " + workload +
              ", n=" + std::to_string(n) + ", k=" + std::to_string(k) + ", " +
              std::to_string(seeds) + " seeds");
    std::cout << "\n";
  }
  return 0;
}

int main(int argc, char** argv) {
  return ftc::util::run_cli(argc, argv, run);
}
