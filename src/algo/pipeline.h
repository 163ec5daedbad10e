// End-to-end k-MDS pipeline for general graphs: Algorithm 1 (fractional LP
// approximation) followed by Algorithm 2 (randomized rounding).
//
// Combined guarantee (Theorems 4.5 + 4.6): an integral k-fold dominating
// set of expected size O(t·Δ^{2/t}·log Δ)·OPT, computed in O(t²) rounds
// with O(log n)-bit messages.
//
// Two execution paths produce identical output for equal (graph, demands,
// t, seed):
//  * kMirror      — centralized mirrors; fast, used for large sweeps;
//  * kDistributed — per-node processes on the synchronous simulator; used
//                   when round/message metrics are measured, and as the
//                   ground truth the mirror is tested against. Algorithms
//                   1 and 2 run back to back on one sim::SyncNetwork,
//                   configured once before round 0, so `metrics` is that
//                   network's.
#pragma once

#include <cstdint>

#include "algo/lp/lp_kmds.h"
#include "algo/rounding/rounding.h"
#include "domination/domination.h"
#include "graph/graph.h"
#include "sim/network.h"

namespace ftc::algo {

/// Which implementation executes the pipeline.
enum class Execution {
  kMirror,       ///< centralized mirrors (no simulator overhead)
  kDistributed,  ///< per-node processes on sim::SyncNetwork
};

/// Pipeline configuration.
struct PipelineOptions {
  int t = 3;                 ///< Algorithm 1 trade-off parameter
  std::uint64_t seed = 1;    ///< randomness root (rounding coins)
  Execution execution = Execution::kMirror;
};

/// Everything the pipeline produces.
struct PipelineResult {
  LpResult lp;               ///< Algorithm 1 output (x, dual, audit data)
  RoundingResult rounding;   ///< Algorithm 2 output (the integral set)
  std::int64_t total_rounds = 0;  ///< LP rounds + rounding rounds

  /// The network's metrics over both protocols; meaningful only for
  /// Execution::kDistributed.
  sim::Metrics metrics;

  /// The integral k-fold dominating set (alias of rounding.set).
  [[nodiscard]] const std::vector<graph::NodeId>& set() const noexcept {
    return rounding.set;
  }
};

/// Runs Algorithm 1 + Algorithm 2 on `g` with per-node `demands`.
[[nodiscard]] PipelineResult run_kmds_pipeline(
    const graph::Graph& g, const domination::Demands& demands,
    const PipelineOptions& options = {});

}  // namespace ftc::algo
