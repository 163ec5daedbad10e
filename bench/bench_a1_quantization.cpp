// A1 (ablation) — does the O(log n)-bit fixed-point message encoding cost
// solution quality?
//
// DESIGN.md commits Algorithm 1 to 2^-40 fixed-point values on the wire so
// messages stay a constant number of O(log n)-bit words. This ablation runs
// the mirror with quantization on and off across densities and t, and
// reports the relative objective difference plus the worst primal
// constraint violation in the quantized run.
//
// Expected: differences in the 1e-10 range — quantization is free.
#include "bench_common.h"

#include <cmath>

#include "algo/lp/lp_kmds.h"
#include "domination/domination.h"
#include "domination/fractional.h"
#include "graph/generators.h"
#include "util/rng.h"

int run(const ftc::util::Args& args) {
  using namespace ftc;
  const int seeds = static_cast<int>(args.get_int("seeds", 5, 1, INT32_MAX));
  const auto n =
      static_cast<graph::NodeId>(args.get_int("n", 400, 2, INT32_MAX));
  const auto k = static_cast<std::int32_t>(args.get_int("k", 2, 1, INT32_MAX));

  bench::Output out({"avg_deg", "t", "obj_exact", "obj_quantized",
                     "rel_diff", "max_violation(q)"},
                    args);

  for (long long degree : {6, 16, 40}) {
    for (int t : {1, 3, 6}) {
      util::RunningStats exact_obj, quant_obj, rel, viol;
      for (int s = 0; s < seeds; ++s) {
        util::Rng rng(5000 + static_cast<std::uint64_t>(s) +
                      static_cast<std::uint64_t>(degree) * 31);
        const graph::Graph g = graph::gnp(
            n, static_cast<double>(degree) / static_cast<double>(n - 1),
            rng);
        const auto d = domination::clamp_demands(
            g, domination::uniform_demands(g.n(), k));
        algo::LpOptions quantized, exact;
        quantized.t = exact.t = t;
        exact.quantize_messages = false;
        const auto rq = algo::solve_fractional_kmds(g, d, quantized);
        const auto re = algo::solve_fractional_kmds(g, d, exact);
        exact_obj.add(re.primal.objective());
        quant_obj.add(rq.primal.objective());
        rel.add(std::abs(rq.primal.objective() - re.primal.objective()) /
                std::max(1.0, re.primal.objective()));
        viol.add(domination::max_primal_violation(g, rq.primal, d));
      }
      out.row({util::fmt(degree), util::fmt(t), util::fmt(exact_obj.mean(), 6),
               util::fmt(quant_obj.mean(), 6),
               util::fmt(rel.max(), 12), util::fmt(viol.max(), 12)});
    }
    out.rule();
  }

  out.print(
      "A1 (ablation) - fixed-point message quantization in Algorithm 1\n"
      "n=" + std::to_string(n) + ", k=" + std::to_string(k) + ", " +
      std::to_string(seeds) +
      " seeds; rel_diff/max_violation are per-row maxima");
  return 0;
}

int main(int argc, char** argv) {
  return ftc::util::run_cli(argc, argv, run);
}
