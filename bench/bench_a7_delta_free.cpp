// A7 (extension) — the Δ-free variant of Algorithm 1 (Remark §4.2).
//
// The paper assumes every node knows the global maximum degree Δ, and
// remarks the assumption can be removed. Our variant replaces Δ with the
// maximum degree within each node's 2-hop neighborhood (learned in a
// 2-round warm-up). This bench quantifies the cost/benefit on degree-skewed
// graphs, where the two differ the most:
//   * fractional objective of global-Δ vs two-hop-Δ runs,
//   * the spread of the local estimates (min/max Δ_v vs Δ),
//   * rounds (the warm-up adds exactly 2).
//
// Expected: near-identical quality — most nodes' behavior is governed by
// their local degree structure anyway; the variant even wins slightly on
// power-law graphs (low-degree regions stop raising x earlier).
#include "bench_common.h"

#include <algorithm>

#include "algo/lp/lp_kmds.h"
#include "domination/domination.h"
#include "graph/generators.h"
#include "util/rng.h"

int run(const ftc::util::Args& args) {
  using namespace ftc;
  const int seeds = static_cast<int>(args.get_int("seeds", 5, 1, INT32_MAX));
  const auto n =
      static_cast<graph::NodeId>(args.get_int("n", 500, 2, INT32_MAX));
  const auto k = static_cast<std::int32_t>(args.get_int("k", 2, 1, INT32_MAX));
  const int t = static_cast<int>(args.get_int("t", 3, 1, INT32_MAX));

  bench::Output out({"family", "Delta", "min_2hop", "obj_global",
                     "obj_2hop", "2hop/global", "rounds_g", "rounds_2h"},
                    args);

  for (const std::string family : {"gnp", "powerlaw", "caveman"}) {
    util::RunningStats delta_s, min2_s, obj_g, obj_l;
    for (int s = 0; s < seeds; ++s) {
      util::Rng rng(7100 + static_cast<std::uint64_t>(s));
      graph::Graph g;
      if (family == "gnp") {
        g = graph::gnp(n, 10.0 / static_cast<double>(n - 1), rng);
      } else if (family == "powerlaw") {
        g = graph::barabasi_albert(n, 3, rng);
      } else {
        g = graph::caveman(n / 8, 8);
      }
      const auto d = domination::clamp_demands(
          g, domination::uniform_demands(g.n(), k));

      algo::LpOptions global_opts, local_opts;
      global_opts.t = local_opts.t = t;
      local_opts.degree_knowledge = algo::DegreeKnowledge::kTwoHop;
      const auto rg = algo::solve_fractional_kmds(g, d, global_opts);
      const auto rl = algo::solve_fractional_kmds(g, d, local_opts);
      obj_g.add(rg.primal.objective());
      obj_l.add(rl.primal.objective());
      delta_s.add(static_cast<double>(g.max_degree()));
      const auto d1 = algo::two_hop_d1(g);
      min2_s.add(*std::min_element(d1.begin(), d1.end()) - 1.0);
    }
    out.row({family, util::fmt(delta_s.mean(), 0),
             util::fmt(min2_s.mean(), 0), util::fmt(obj_g.mean(), 1),
             util::fmt(obj_l.mean(), 1),
             util::fmt(obj_l.mean() / obj_g.mean(), 3),
             util::fmt(algo::lp_round_count(t)),
             util::fmt(algo::lp_round_count(t) + 2)});
  }

  out.print(
      "A7 (extension) - Delta-free Algorithm 1 (2-hop local degree)\n"
      "n=" + std::to_string(n) + ", k=" + std::to_string(k) +
      ", t=" + std::to_string(t) + ", " + std::to_string(seeds) + " seeds");
  return 0;
}

int main(int argc, char** argv) {
  return ftc::util::run_cli(argc, argv, run);
}
