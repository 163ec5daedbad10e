// Quickstart: build a fault-tolerant cluster backbone on a small sensor
// deployment with both of the paper's algorithms, and validate the results.
//
//   ./quickstart [--n=300] [--k=3] [--seed=1]
//
// Walks through the whole public API:
//   1. deploy nodes and build the unit disk graph,
//   2. run Algorithm 3 (the UDG specialist, O(log log n) rounds),
//   3. run Algorithm 1 + 2 (the general-graph pipeline) on the same graph,
//   4. validate both k-fold dominating sets and compare sizes against a
//      lower bound on the optimum.
#include <cstdio>
#include <limits>

#include "algo/baseline/greedy.h"
#include "algo/pipeline.h"
#include "algo/udg/udg_kmds.h"
#include "domination/bounds.h"
#include "domination/domination.h"
#include "geom/udg.h"
#include "util/cli.h"
#include "util/rng.h"

namespace {

int run(const ftc::util::Args& args) {
  using namespace ftc;
  const auto n = static_cast<graph::NodeId>(
      args.get_int("n", 300, 1, std::numeric_limits<graph::NodeId>::max()));
  const auto k = static_cast<std::int32_t>(
      args.get_int("k", 3, 1, std::numeric_limits<std::int32_t>::max()));
  const std::uint64_t seed = args.get_u64("seed", 1);

  // 1. Deploy n sensors uniformly with expected radio degree ~15 and
  //    connect every pair within communication radius 1.
  util::Rng rng(seed);
  const geom::UnitDiskGraph udg = geom::uniform_udg_with_degree(n, 15.0, rng);
  std::printf("deployment: n=%d, edges=%zu, max degree=%d\n", udg.n(),
              udg.graph.m(), udg.graph.max_degree());

  // 2. Algorithm 3: the UDG clustering specialist.
  algo::UdgOptions udg_opts;
  udg_opts.k = k;
  const algo::UdgResult alg3 = algo::solve_udg_kmds(udg, udg_opts, seed);
  const bool alg3_ok = domination::is_k_dominating(
      udg.graph, alg3.leaders, k, domination::Mode::kOpenForNonMembers);
  std::printf(
      "\nAlgorithm 3 (UDG, O(log log n) rounds):\n"
      "  Part I rounds: %lld, Part II iterations: %lld\n"
      "  Part I leaders: %zu -> final %d-fold dominating set: %zu nodes\n"
      "  valid k-fold dominating set: %s\n",
      static_cast<long long>(alg3.part1_rounds),
      static_cast<long long>(alg3.part2_iterations),
      alg3.part1_leaders.size(), k, alg3.leaders.size(),
      alg3_ok ? "yes" : "NO");

  // 3. Algorithms 1 + 2: the general-graph pipeline (needs no geometry).
  const auto demands = domination::clamp_demands(
      udg.graph, domination::uniform_demands(udg.n(), k));
  algo::PipelineOptions pipe_opts;
  pipe_opts.t = 3;  // O(t^2) rounds, ~O(t * Delta^(2/t) log Delta) approx
  pipe_opts.seed = seed;
  const algo::PipelineResult pipe =
      algo::run_kmds_pipeline(udg.graph, demands, pipe_opts);
  const bool pipe_ok = domination::is_k_dominating(udg.graph, pipe.set(),
                                                   demands);
  std::printf(
      "\nAlgorithms 1+2 (general graphs, t=3 -> %lld rounds):\n"
      "  fractional objective: %.2f, integral set: %zu nodes\n"
      "  valid k-fold dominating set: %s\n",
      static_cast<long long>(pipe.total_rounds),
      pipe.lp.primal.objective(), pipe.set().size(), pipe_ok ? "yes" : "NO");

  // 4. Quality: compare against a lower bound on the optimum.
  const auto greedy = algo::greedy_kmds(udg.graph, demands);
  const double lb = domination::best_lower_bound(
      udg.graph, demands, static_cast<std::int64_t>(greedy.set.size()),
      pipe.lp.dual_bound(demands));
  std::printf(
      "\nquality (vs OPT lower bound %.1f):\n"
      "  Algorithm 3: %.2fx    Alg1+2: %.2fx    centralized greedy: %.2fx\n",
      lb, static_cast<double>(alg3.leaders.size()) / lb,
      static_cast<double>(pipe.set().size()) / lb,
      static_cast<double>(greedy.set.size()) / lb);

  return alg3_ok && pipe_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return ftc::util::run_cli(argc, argv, run);
}
