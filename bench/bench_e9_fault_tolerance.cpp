// E9 — Section 1's motivation: k-fold redundancy keeps the virtual
// backbone alive when dominators fail.
//
// On a uniform UDG, build a k-fold dominating set, crash every dominator
// independently with probability p, and measure the fraction of non-member
// nodes that keep at least one live dominator.
//
// Two backbone constructions are reported:
//   * "greedy"  — the minimal-size H_Δ backbone: nodes hold barely k
//     dominators, so retention isolates the k effect and should track the
//     independence prediction 1 − p^k;
//   * "alg3"    — Algorithm 3's sets, whose conservative size adds
//     incidental redundancy on top (retention ≥ the greedy series).
//
// Expected shape: greedy retention ≈ 1 − p^k (k=1 collapses at high p,
// k ≥ 3 barely notices); alg3 retention dominates both.
#include "bench_common.h"

#include <cmath>

#include "algo/baseline/greedy.h"
#include "algo/udg/udg_kmds.h"
#include "domination/domination.h"
#include "geom/udg.h"
#include "util/rng.h"

namespace {

using namespace ftc;

/// Fraction of non-member nodes with >= 1 live dominator after crashing
/// each member independently with probability p.
double retention(const graph::Graph& g,
                 const std::vector<graph::NodeId>& backbone, double p,
                 util::Rng& crash_rng) {
  std::vector<graph::NodeId> alive;
  for (graph::NodeId v : backbone) {
    if (!crash_rng.bernoulli(p)) alive.push_back(v);
  }
  const auto members = domination::to_membership(g, backbone);
  const auto live = domination::to_membership(g, alive);
  const auto cover = domination::closed_coverage_counts(g, live);
  std::int64_t covered = 0, total = 0;
  for (graph::NodeId v = 0; v < g.n(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    if (members[i]) continue;
    ++total;
    if (cover[i] >= 1) ++covered;
  }
  return total == 0 ? 1.0
                    : static_cast<double>(covered) /
                          static_cast<double>(total);
}

}  // namespace

int run(const ftc::util::Args& args) {
  const int seeds = static_cast<int>(args.get_int("seeds", 5, 1, INT32_MAX));
  const auto n =
      static_cast<graph::NodeId>(args.get_int("n", 2000, 2, INT32_MAX));
  const auto k_values = args.get_int_list("k", {1, 2, 3, 4, 5}, 1, INT32_MAX);
  const std::vector<double> crash_probs{0.1, 0.2, 0.3, 0.4, 0.5};
  const int crash_trials =
      static_cast<int>(args.get_int("crash-trials", 10, 1, INT32_MAX));

  bench::Output out({"backbone", "k", "|S|", "p=0.1", "p=0.2", "p=0.3",
                     "p=0.4", "p=0.5", "1-0.3^k"},
                    args);

  for (const std::string builder : {"greedy", "alg3"}) {
    for (long long k : k_values) {
      util::RunningStats set_size;
      std::vector<util::RunningStats> retained(crash_probs.size());
      for (int s = 0; s < seeds; ++s) {
        const std::uint64_t seed = 77 + static_cast<std::uint64_t>(s);
        util::Rng rng(seed);
        const auto udg = geom::uniform_udg_with_degree(n, 16.0, rng);

        std::vector<graph::NodeId> backbone;
        if (builder == "greedy") {
          const auto d = domination::clamp_demands(
              udg.graph, domination::uniform_demands(
                             udg.n(), static_cast<std::int32_t>(k)));
          backbone = algo::greedy_kmds(udg.graph, d).set;
        } else {
          algo::UdgOptions opts;
          opts.k = static_cast<std::int32_t>(k);
          backbone = algo::solve_udg_kmds(udg, opts, seed).leaders;
        }
        set_size.add(static_cast<double>(backbone.size()));

        for (std::size_t pi = 0; pi < crash_probs.size(); ++pi) {
          for (int trial = 0; trial < crash_trials; ++trial) {
            util::Rng crash_rng(seed * 1000 + pi * 17 +
                                static_cast<std::uint64_t>(trial));
            retained[pi].add(
                retention(udg.graph, backbone, crash_probs[pi], crash_rng));
          }
        }
      }
      std::vector<std::string> cells{builder, util::fmt(k),
                                     util::fmt(set_size.mean(), 0)};
      for (auto& r : retained) {
        cells.push_back(util::fmt(100.0 * r.mean(), 1) + "%");
      }
      cells.push_back(
          util::fmt(100.0 * (1.0 - std::pow(0.3, static_cast<double>(k))),
                    1) +
          "%");
      out.row(std::move(cells));
    }
    out.rule();
  }

  out.print(
      "E9 (Section 1) - backbone coverage retention under dominator "
      "crashes\nuniform UDG, n=" + std::to_string(n) + ", " +
      std::to_string(seeds) +
      " deployments; cell = mean % of non-members still 1-covered");
  return 0;
}

int main(int argc, char** argv) {
  return ftc::util::run_cli(argc, argv, run);
}
