// A2 (extension) — weighted k-MDS (the paper's Section 4.1 remark).
//
// Heterogeneous selection costs (e.g. battery state): how much cheaper is a
// weight-aware backbone than a cardinality-minimal one? We compare the
// weighted greedy and weight-aware rounding against their weight-blind
// counterparts, all evaluated under the weighted objective, across weight
// skews (max/min weight ratio).
//
// Expected: the gap grows with skew — weight-blind algorithms happily pick
// expensive hubs; weight-aware ones route around them. On uniform weights
// both coincide exactly.
//
// The rounding comparison isolates the *request rule* (the only
// weight-aware part of Algorithm 2): it rounds the all-zero fractional
// solution, so every dominator comes from the repair path — blind repair
// picks lowest ids, aware repair picks cheapest candidates.
#include "bench_common.h"

#include "algo/baseline/greedy.h"
#include "algo/lp/lp_kmds.h"
#include "algo/rounding/rounding.h"
#include "algo/weighted/weighted.h"
#include "domination/domination.h"
#include "graph/generators.h"
#include "util/rng.h"

int run(const ftc::util::Args& args) {
  using namespace ftc;
  const int seeds = static_cast<int>(args.get_int("seeds", 5, 1, INT32_MAX));
  const auto n =
      static_cast<graph::NodeId>(args.get_int("n", 400, 2, INT32_MAX));
  const auto k = static_cast<std::int32_t>(args.get_int("k", 2, 1, INT32_MAX));

  bench::Output out({"skew", "greedy_blind_w", "greedy_aware_w", "saving%",
                     "repair_blind_w", "repair_aware_w", "saving%",
                     "lower_bnd"},
                    args);

  for (double skew : {1.0, 4.0, 16.0, 64.0}) {
    util::RunningStats blind_g, aware_g, blind_r, aware_r, lb;
    for (int s = 0; s < seeds; ++s) {
      util::Rng rng(6000 + static_cast<std::uint64_t>(s));
      const graph::Graph g = graph::gnp(
          n, 12.0 / static_cast<double>(n - 1), rng);
      const auto d = domination::clamp_demands(
          g, domination::uniform_demands(g.n(), k));
      const auto w = algo::random_weights(g.n(), 1.0, skew, rng);

      // Weight-blind: optimize cardinality, pay the weighted bill.
      const auto blind = algo::greedy_kmds(g, d);
      blind_g.add(algo::set_weight(blind.set, w));
      const auto aware = algo::greedy_kmds(g, d, w);
      aware_g.add(algo::set_weight(aware.set, w));

      // Pure repair path: zero fractional mass forces every selection
      // through the request rule.
      domination::FractionalSolution zero;
      zero.x.assign(static_cast<std::size_t>(g.n()), 0.0);
      const auto rb = algo::round_fractional(g, zero, d, 99 + s);
      blind_r.add(algo::set_weight(rb.set, w));
      const auto ra = algo::round_fractional(g, zero, d, 99 + s, w);
      aware_r.add(algo::set_weight(ra.set, w));

      lb.add(algo::weighted_lower_bound(g, d, w));
    }
    auto saving = [](double blind, double aware) {
      return 100.0 * (blind - aware) / blind;
    };
    out.row({util::fmt(skew, 0), util::fmt(blind_g.mean(), 1),
             util::fmt(aware_g.mean(), 1),
             util::fmt(saving(blind_g.mean(), aware_g.mean()), 1),
             util::fmt(blind_r.mean(), 1), util::fmt(aware_r.mean(), 1),
             util::fmt(saving(blind_r.mean(), aware_r.mean()), 1),
             util::fmt(lb.mean(), 1)});
  }

  out.print(
      "A2 (extension) - weighted k-MDS vs weight-blind selection\n"
      "n=" + std::to_string(n) + ", k=" + std::to_string(k) +
      ", weights uniform in [1, skew], " + std::to_string(seeds) + " seeds");
  return 0;
}

int main(int argc, char** argv) {
  return ftc::util::run_cli(argc, argv, run);
}
