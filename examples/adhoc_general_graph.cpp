// Ad hoc network with non-disk radio propagation — why the paper also
// studies general graphs (Section 1: "signal propagation does often not
// form clear-cut disks").
//
//   ./adhoc_general_graph [--n=600] [--k=2] [--t=3]
//
// Scenario: start from a geometric deployment, then perturb the
// connectivity the way real radios do — obstacles sever some short links,
// reflections create some long ones. The result is NOT a unit disk graph,
// so Algorithm 3's guarantees don't apply; the general-graph pipeline
// (Algorithms 1+2) is the right tool. We run it fully distributed on the
// synchronous simulator and report rounds, message sizes, and quality.
#include <cstdio>
#include <limits>

#include "algo/baseline/greedy.h"
#include "algo/pipeline.h"
#include "domination/bounds.h"
#include "domination/domination.h"
#include "geom/udg.h"
#include "graph/generators.h"
#include "util/cli.h"
#include "util/rng.h"

namespace {

int run(const ftc::util::Args& args) {
  using namespace ftc;
  const auto n = static_cast<graph::NodeId>(
      args.get_int("n", 600, 1, std::numeric_limits<graph::NodeId>::max()));
  const auto k = static_cast<std::int32_t>(
      args.get_int("k", 2, 1, std::numeric_limits<std::int32_t>::max()));
  const int t = static_cast<int>(
      args.get_int("t", 3, 1, std::numeric_limits<int>::max()));
  const std::uint64_t seed = args.get_u64("seed", 5);

  util::Rng rng(seed);
  const auto udg = geom::uniform_udg_with_degree(n, 14.0, rng);
  const graph::Graph radio = geom::quasi_udg(udg, 0.25, 0.15, rng);
  std::printf(
      "radio graph: n=%d, edges=%zu (geometric had %zu), max degree=%d\n"
      "25%% of short links severed by obstacles, long reflections added\n\n",
      radio.n(), radio.m(), udg.graph.m(), radio.max_degree());

  const auto demands =
      domination::clamp_demands(radio, domination::uniform_demands(n, k));

  // Fully distributed run: every node is a process exchanging O(log n)-bit
  // messages; no node ever sees the global topology.
  algo::PipelineOptions opts;
  opts.t = t;
  opts.seed = seed;
  opts.execution = algo::Execution::kDistributed;
  const auto pipe = algo::run_kmds_pipeline(radio, demands, opts);

  std::printf("distributed Algorithm 1+2 (t=%d):\n", t);
  std::printf("  synchronous rounds:      %lld (theory: 2t^2+2+3 = %lld)\n",
              static_cast<long long>(pipe.total_rounds),
              static_cast<long long>(algo::lp_round_count(t) + 3));
  std::printf("  messages sent:           %lld\n",
              static_cast<long long>(pipe.metrics.messages_sent));
  std::printf("  largest message:         %lld words (O(log n) bits each)\n",
              static_cast<long long>(pipe.metrics.max_message_words));
  std::printf("  fractional objective:    %.2f\n",
              pipe.lp.primal.objective());
  std::printf("  integral %d-fold set:     %zu nodes\n", k,
              pipe.set().size());

  const bool ok = domination::is_k_dominating(radio, pipe.set(), demands);
  const auto greedy = algo::greedy_kmds(radio, demands);
  const double lb = domination::best_lower_bound(
      radio, demands, static_cast<std::int64_t>(greedy.set.size()),
      pipe.lp.dual_bound(demands));
  std::printf("  valid k-fold dominating set: %s\n", ok ? "yes" : "NO");
  std::printf("  vs OPT lower bound %.1f:  %.2fx (centralized greedy: %.2fx)\n",
              lb, static_cast<double>(pipe.set().size()) / lb,
              static_cast<double>(greedy.set.size()) / lb);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return ftc::util::run_cli(argc, argv, run);
}
