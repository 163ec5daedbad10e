// Soak harness: long self-healing executions under continuous faults.
//
// Ties the whole robustness stack together: a backbone is built once, every
// node then runs the RepairProcess daemon, and a FaultPlan (typically
// churn) batters the network for thousands of rounds while an omniscient
// observer — used for *measurement only*, never for control — tracks how
// coverage behaves:
//
//   * violation windows: maximal runs of rounds in which some live node's
//     satisfiable demand is unmet (its length is the repair latency the
//     survivors actually experienced);
//   * the repair threshold: detection timeout + the wave bound
//     (kRepairRoundsPerWave * (max demand + 3)) — a window longer than
//     this means the protocol failed to self-heal in time;
//   * promotion overhead vs. a full re-cluster of the final live graph;
//   * message cost, since heartbeats ride on every protocol word.
//
// A demand is "satisfiable" when clamped to the live closed neighborhood
// (min(k_i, live_deg + 1)) — demands that churn has made
// impossible are excluded from violation accounting, exactly like the
// fully_satisfied handling of the centralized oracle.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "domination/domination.h"
#include "geom/udg.h"
#include "graph/graph.h"
#include "obs/plane.h"
#include "sim/fault.h"
#include "sim/heartbeat.h"

namespace ftc::algo {

/// Knobs for one soak run.
struct SoakOptions {
  std::int64_t rounds = 2000;          ///< total rounds to execute
  /// Every RepairProcess's failure detector: a heartbeat timeout, or an
  /// M-of-N window under lossy links (sim::HeartbeatMonitor).
  sim::HeartbeatMonitor::Options detection;
  double message_loss = 0.0;           ///< link loss probability
  std::uint64_t network_seed = 1;      ///< per-node process randomness
  std::uint64_t fault_seed = 2;        ///< fault plan compilation
  int threads = 1;                     ///< round-engine shards (determinism-safe)
  obs::Plane* plane = nullptr;         ///< optional observability plane
};

/// What the observer saw.
struct SoakReport {
  std::int64_t rounds = 0;
  std::int64_t crashes = 0;     ///< crash events in the compiled schedule
  std::int64_t recoveries = 0;  ///< rejoin events in the compiled schedule

  std::int64_t violation_rounds = 0;   ///< rounds with >= 1 unmet live demand
  std::int64_t violation_windows = 0;  ///< maximal violated intervals
  std::int64_t max_violation_window = 0;
  double mean_violation_window = 0.0;
  std::int64_t repair_threshold = 0;   ///< see file comment
  std::int64_t windows_over_threshold = 0;  ///< unrepaired violations
  bool violated_at_end = false;        ///< window still open at the horizon

  std::int64_t promotions = 0;         ///< self-promotions observed
  std::int64_t final_live = 0;         ///< live nodes at the horizon
  std::int64_t final_set_size = 0;     ///< live members at the horizon
  std::int64_t rebuild_set_size = 0;   ///< fresh greedy on the live graph
  std::int64_t final_unsatisfied = 0;  ///< live nodes stuck unsatisfiable

  std::int64_t messages_sent = 0;
  std::int64_t words_sent = 0;
  double messages_per_live_node_round = 0.0;  ///< heartbeat+protocol cost
  std::int64_t suspicions_raised = 0;
  std::int64_t refuted_suspicions = 0;  ///< false suspicions + churn rejoins
};

/// Runs one soak execution: builds a SyncNetwork over `g` (UDG optional —
/// required only by region fault plans), installs a RepairProcess per node
/// seeded with `initial_set` membership, installs `plan`, and steps
/// `options.rounds` rounds while tracking the report. Deterministic in
/// (g, demands, initial_set, plan, options).
[[nodiscard]] SoakReport run_soak(const graph::Graph& g,
                                  const geom::UnitDiskGraph* udg,
                                  const domination::Demands& demands,
                                  std::span<const graph::NodeId> initial_set,
                                  const sim::FaultPlan& plan,
                                  const SoakOptions& options);

}  // namespace ftc::algo
