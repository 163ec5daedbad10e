// A4 (extension) — local repair vs full re-clustering after failures.
//
// The operational half of the paper's fault-tolerance motivation: once
// failures erode a k-fold backbone, the network must restore coverage.
// Full re-clustering touches all n nodes; the repair extension touches only
// the 2-hop damage region. We fail a fraction p of the dominators and
// report, per (k, p):
//   * promoted nodes (repair) vs the full-rebuild backbone size,
//   * the touched-region size as a fraction of n (the locality win),
//   * the size overhead of the repaired backbone vs a fresh rebuild.
//
// Expected: work scales with p·|S|, not with n; the repaired backbone stays
// within a few percent of the freshly rebuilt one.
#include "bench_common.h"

#include "algo/baseline/greedy.h"
#include "algo/extensions/repair.h"
#include "domination/domination.h"
#include "geom/udg.h"
#include "util/rng.h"

int run(const ftc::util::Args& args) {
  using namespace ftc;
  const int seeds = static_cast<int>(args.get_int("seeds", 5, 1, INT32_MAX));
  const auto n =
      static_cast<graph::NodeId>(args.get_int("n", 2000, 2, INT32_MAX));
  const auto k_values = args.get_int_list("k", {1, 2, 4}, 1, INT32_MAX);

  bench::Output out({"k", "fail_p", "|S|", "failed", "promoted",
                     "touched/n %", "repaired_size", "rebuild_size",
                     "overhead%"},
                    args);

  for (long long k : k_values) {
    for (double fail_p : {0.1, 0.3, 0.5}) {
      util::RunningStats s0, failed_n, promoted, touched_frac, repaired,
          rebuilt;
      for (int s = 0; s < seeds; ++s) {
        const std::uint64_t seed = 11 + static_cast<std::uint64_t>(s);
        util::Rng rng(seed);
        const auto udg = geom::uniform_udg_with_degree(n, 16.0, rng);
        const graph::Graph& g = udg.graph;
        const auto d = domination::clamp_demands(
            g, domination::uniform_demands(g.n(),
                                           static_cast<std::int32_t>(k)));
        const auto base = algo::greedy_kmds(g, d).set;
        s0.add(static_cast<double>(base.size()));

        util::Rng crash_rng(seed * 31);
        std::vector<graph::NodeId> failed;
        for (graph::NodeId v : base) {
          if (crash_rng.bernoulli(fail_p)) failed.push_back(v);
        }
        failed_n.add(static_cast<double>(failed.size()));

        const auto repair = algo::repair_after_failures(g, base, failed, d);
        promoted.add(static_cast<double>(repair.promoted));
        touched_frac.add(100.0 * static_cast<double>(repair.touched) /
                         static_cast<double>(g.n()));
        repaired.add(static_cast<double>(repair.set.size()));

        // Full rebuild on the live subgraph for comparison.
        const graph::Graph live = g.without_nodes(failed);
        rebuilt.add(static_cast<double>(
            algo::greedy_kmds(live, domination::live_demands(live, failed, d))
                .set.size()));
      }
      out.row({util::fmt(k), util::fmt(fail_p, 1), util::fmt(s0.mean(), 0),
               util::fmt(failed_n.mean(), 0), util::fmt(promoted.mean(), 0),
               util::fmt(touched_frac.mean(), 1),
               util::fmt(repaired.mean(), 0), util::fmt(rebuilt.mean(), 0),
               util::fmt(100.0 * (repaired.mean() / rebuilt.mean() - 1.0),
                         1)});
    }
    out.rule();
  }

  out.print(
      "A4 (extension) - local repair vs full re-clustering\n"
      "uniform UDG n=" + std::to_string(n) + ", greedy backbones, " +
      std::to_string(seeds) + " seeds");
  return 0;
}

int main(int argc, char** argv) {
  return ftc::util::run_cli(argc, argv, run);
}
