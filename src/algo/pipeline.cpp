#include "algo/pipeline.h"

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
  // One network runs both protocols back to back. Algorithm 1 draws no
  // randomness and its last round sends nothing, and Algorithm 2 counts its
  // own steps, so the rounding sees fresh per-node streams and empty
  // inboxes, exactly as on a network of its own.
  PipelineResult result;
  sim::SyncNetwork net(g, options.seed);
  result.lp = run_lp_processes(net, demands, options.t);
  result.rounding = run_rounding_processes(net, result.lp.primal.x, demands);
  result.total_rounds = result.lp.rounds + result.rounding.rounds;
  result.metrics = net.metrics();
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
