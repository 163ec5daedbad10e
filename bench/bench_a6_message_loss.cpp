// A6 (robustness) — behavior under a lossy wireless medium.
//
// The paper motivates fault tolerance partly by the unreliable shared
// medium ("more packet losses and a lower throughput", Section 1), but its
// model assumes reliable delivery. This experiment measures what actually
// happens to the algorithms when messages are dropped independently with
// probability p: both still terminate (their schedules are round-driven),
// and we report how much coverage the computed sets lose.
//
//   * Alg1+2: deficiency of the output vs the demands (the LP's forcing
//     step can miss nodes whose color messages were lost);
//   * Alg3: deficiency vs the open-mode k-domination target.
//
// Expected: graceful degradation — low single-digit % of nodes
// under-covered at p = 5%, rising with p; redundancy (larger k) absorbs
// part of the loss.
#include "bench_common.h"

#include "algo/lp/lp_kmds.h"
#include "algo/lp/lp_kmds_process.h"
#include "algo/rounding/rounding_process.h"
#include "algo/udg/udg_kmds.h"
#include "algo/udg/udg_kmds_process.h"
#include "domination/domination.h"
#include "geom/udg.h"
#include "sim/network.h"
#include "util/rng.h"

namespace {

using namespace ftc;
using graph::NodeId;

/// Fraction of nodes whose demand the set misses (under `mode`).
double deficient_fraction(const graph::Graph& g,
                          const std::vector<NodeId>& set,
                          const domination::Demands& d,
                          domination::Mode mode) {
  const auto members = domination::to_membership(g, set);
  const auto cover = domination::closed_coverage_counts(g, members);
  std::int64_t bad = 0;
  for (NodeId v = 0; v < g.n(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    if (mode == domination::Mode::kOpenForNonMembers && members[i]) continue;
    if (cover[i] < d[i]) ++bad;
  }
  return static_cast<double>(bad) / static_cast<double>(g.n());
}

}  // namespace

int run(const ftc::util::Args& args) {
  const int seeds = static_cast<int>(args.get_int("seeds", 5, 1, INT32_MAX));
  const auto n =
      static_cast<graph::NodeId>(args.get_int("n", 400, 2, INT32_MAX));
  const int t = static_cast<int>(args.get_int("t", 3, 1, INT32_MAX));

  bench::Output out({"k", "loss_p", "alg12_|S|", "alg12_deficient%",
                     "alg3_|S|", "alg3_deficient%", "msgs_lost%"},
                    args);

  for (std::int32_t k : {1, 3}) {
    for (double loss : {0.0, 0.01, 0.05, 0.1, 0.2}) {
      util::RunningStats s12, bad12, s3, bad3, lost_frac;
      for (int s = 0; s < seeds; ++s) {
        const std::uint64_t seed = 21 + static_cast<std::uint64_t>(s);
        util::Rng rng(seed);
        const auto udg = geom::uniform_udg_with_degree(n, 14.0, rng);
        const graph::Graph& g = udg.graph;
        const auto d = domination::clamp_demands(
            g, domination::uniform_demands(g.n(), k));

        // Alg1+2 distributed under loss.
        {
          sim::SyncNetwork lp_net(g, seed);
          lp_net.set_channel({.loss = loss, .seed = seed * 3 + 1});
          const auto lp = algo::run_lp_processes(lp_net, d, t);

          sim::SyncNetwork r_net(g, seed);
          r_net.set_channel({.loss = loss, .seed = seed * 3 + 2});
          const auto set =
              algo::run_rounding_processes(r_net, lp.primal.x, d).set;
          s12.add(static_cast<double>(set.size()));
          bad12.add(100.0 * deficient_fraction(
                                g, set, d,
                                domination::Mode::kClosedNeighborhood));
          const auto& m = lp_net.metrics();
          lost_frac.add(100.0 *
                        static_cast<double>(lp_net.messages_lost()) /
                        static_cast<double>(m.messages_sent +
                                            lp_net.messages_lost()));
        }

        // Alg3 distributed under loss.
        {
          sim::SyncNetwork net(udg, seed);
          net.set_channel({.loss = loss, .seed = seed * 3 + 3});
          const auto leaders = algo::run_udg_processes(net, {.k = k}).leaders;
          s3.add(static_cast<double>(leaders.size()));
          bad3.add(100.0 *
                   deficient_fraction(
                       g, leaders, domination::uniform_demands(g.n(), k),
                       domination::Mode::kOpenForNonMembers));
        }
      }
      out.row({util::fmt(k), util::fmt(loss, 2), util::fmt(s12.mean(), 0),
               util::fmt(bad12.mean(), 2), util::fmt(s3.mean(), 0),
               util::fmt(bad3.mean(), 2), util::fmt(lost_frac.mean(), 1)});
    }
    out.rule();
  }

  out.print(
      "A6 (robustness) - distributed runs over lossy links\n"
      "uniform UDG n=" + std::to_string(n) + ", t=" + std::to_string(t) +
      ", " + std::to_string(seeds) +
      " seeds; deficient% = nodes whose demand the output misses");
  return 0;
}

int main(int argc, char** argv) {
  return ftc::util::run_cli(argc, argv, run);
}
