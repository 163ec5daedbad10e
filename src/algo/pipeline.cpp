#include "algo/pipeline.h"

#include <algorithm>
#include <cassert>

#include "algo/lp/lp_kmds_process.h"
#include "algo/rounding/rounding_process.h"

namespace ftc::algo {

using graph::NodeId;

namespace {

PipelineResult run_mirror(const graph::Graph& g,
                          const domination::Demands& demands,
                          const PipelineOptions& options) {
  PipelineResult result;
  LpOptions lp_options;
  lp_options.t = options.t;
  result.lp = solve_fractional_kmds(g, demands, lp_options);
  result.rounding =
      round_fractional(g, result.lp.primal, demands, options.seed);
  result.total_rounds = result.lp.rounds + result.rounding.rounds;
  return result;
}

PipelineResult run_distributed(const graph::Graph& g,
                               const domination::Demands& demands,
                               const PipelineOptions& options) {
  PipelineResult result;
  sim::SyncNetwork lp_net(g, options.seed);
  result.lp = run_lp_processes(lp_net, demands, options.t);

  // Fresh network, same seed: Algorithm 1 consumes no randomness, so
  // per-node streams align with the mirror.
  sim::SyncNetwork rounding_net(g, options.seed);
  result.rounding =
      run_rounding_processes(rounding_net, result.lp.primal.x, demands);

  result.total_rounds = result.lp.rounds + result.rounding.rounds;
  result.metrics = lp_net.metrics();
  result.metrics.rounds += rounding_net.metrics().rounds;
  result.metrics.messages_sent += rounding_net.metrics().messages_sent;
  result.metrics.words_sent += rounding_net.metrics().words_sent;
  result.metrics.max_message_words =
      std::max(result.metrics.max_message_words,
               rounding_net.metrics().max_message_words);
  return result;
}

}  // namespace

PipelineResult run_kmds_pipeline(const graph::Graph& g,
                                 const domination::Demands& demands,
                                 const PipelineOptions& options) {
  assert(static_cast<NodeId>(demands.size()) == g.n());
  assert(options.t >= 1);
  return options.execution == Execution::kMirror
             ? run_mirror(g, demands, options)
             : run_distributed(g, demands, options);
}

}  // namespace ftc::algo
