// Pluggable fault injection for the network simulators.
//
// The paper's premise is that k-fold domination buys tolerance against node
// failures; exercising that claim needs failure *processes*, not just
// hand-placed crashes. A FaultPlan describes such a process declaratively:
//
//   * iid_crashes    — every live node crashes independently with a fixed
//                      per-round probability (the memoryless baseline);
//   * targeted_by_degree — an adversary kills the highest-degree live nodes
//                      at a chosen round (clusterheads die first);
//   * region         — spatially correlated failure on a UDG deployment:
//                      every live node within a disk dies at once (power
//                      outage, jamming, physical damage);
//   * churn          — iid crashes where each victim later *rejoins* with
//                      reset process state after a random downtime.
//
// Plans are pure descriptions. compile_fault_plan() expands a plan into a
// deterministic, sorted FaultEvent schedule for a concrete (graph, horizon,
// seed) — the fault process depends only on its own randomness, never on
// protocol state, so the same schedule can drive the engine or feed an
// offline oracle (e.g. repair_after_failures). FaultInjector installs a
// compiled schedule into a SyncNetwork (crashes + recoveries).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "geom/point.h"
#include "geom/udg.h"
#include "graph/graph.h"
#include "sim/network.h"

namespace ftc::sim {

/// One fault event: node crashes or rejoins at the start of `round`.
struct FaultEvent {
  std::int64_t round = 0;
  graph::NodeId node = -1;
  bool recover = false;  ///< false = crash, true = rejoin (churn)

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// Declarative description of one failure process (see file comment). Build
/// via the static factories. Every factory validates its arguments and
/// throws std::invalid_argument on out-of-range probabilities, empty target
/// sets, or inverted parameter pairs — plans are rejected at construction,
/// never silently clamped.
class FaultPlan {
 public:
  /// The empty plan: no faults.
  static FaultPlan none();

  /// Every live node crashes independently with probability `rate` at the
  /// start of each round in [from, until).
  static FaultPlan iid_crashes(double rate, std::int64_t from = 0,
                               std::int64_t until =
                                   std::numeric_limits<std::int64_t>::max());

  /// Crashes the `count` highest-degree live nodes at the start of `round`
  /// (ties toward the smaller id) — the degree-targeting adversary. Throws
  /// if count < 1 (an adversary with no victims is a caller bug).
  static FaultPlan targeted_by_degree(graph::NodeId count, std::int64_t round);

  /// Crashes every live node within Euclidean distance `radius` of `center`
  /// at the start of `round`. Requires a UDG embedding at compile time.
  static FaultPlan region(geom::Point center, double radius,
                          std::int64_t round);

  /// Churn: every live node crashes independently with probability `rate`
  /// per round in [from, until) and rejoins after a uniform downtime in
  /// [min_downtime, max_downtime] rounds (both >= 1). Rejoined nodes are
  /// again subject to the plan.
  static FaultPlan churn(double rate, std::int64_t min_downtime,
                         std::int64_t max_downtime, std::int64_t from = 0,
                         std::int64_t until =
                             std::numeric_limits<std::int64_t>::max());

  /// True if the plan can generate recovery events (a churn plan).
  [[nodiscard]] bool has_recoveries() const noexcept {
    return kind_ == Kind::kChurn;
  }

 private:
  friend std::vector<FaultEvent> compile_fault_plan(const FaultPlan&,
                                                    const graph::Graph&,
                                                    const geom::UnitDiskGraph*,
                                                    std::int64_t,
                                                    std::uint64_t);
  enum class Kind {
    kNone,
    kIid,
    kTargeted,
    kRegion,
    kChurn,
  };
  Kind kind_ = Kind::kNone;
  double rate_ = 0.0;                  // kIid, kChurn
  std::int64_t from_ = 0;              // kIid, kChurn
  std::int64_t until_ = 0;             // kIid, kChurn
  std::int64_t min_downtime_ = 1;      // kChurn
  std::int64_t max_downtime_ = 1;      // kChurn
  graph::NodeId count_ = 0;            // kTargeted
  std::int64_t round_ = 0;             // kTargeted, kRegion
  geom::Point center_{};               // kRegion
  double radius_ = 0.0;                // kRegion
};

/// Expands `plan` over rounds [0, horizon) into a deterministic event
/// schedule, sorted by (round, recover-last, node). `udg` may be nullptr
/// unless the plan is a region plan (throws std::invalid_argument
/// otherwise). A node is never crashed while down nor recovered while up;
/// same-node events are at least one round apart. Randomized plans draw
/// from a stream derived from `seed` only.
[[nodiscard]] std::vector<FaultEvent> compile_fault_plan(
    const FaultPlan& plan, const graph::Graph& g,
    const geom::UnitDiskGraph* udg, std::int64_t horizon, std::uint64_t seed);

/// Compiles a plan and installs the resulting schedule into a network.
class FaultInjector {
 public:
  /// Builds the process a rejoining node boots with (reset state).
  using ProcessFactory =
      std::function<std::unique_ptr<Process>(graph::NodeId)>;

  FaultInjector(FaultPlan plan, std::uint64_t seed);

  /// Compiles against net's topology over [0, horizon) and installs every
  /// event as a scheduled crash/recovery. `factory` is required when the
  /// plan has recoveries (throws std::invalid_argument if missing). Returns
  /// the installed schedule.
  const std::vector<FaultEvent>& install(SyncNetwork& net,
                                         std::int64_t horizon,
                                         ProcessFactory factory = nullptr);

  /// The schedule produced by the last install() (empty before).
  [[nodiscard]] const std::vector<FaultEvent>& schedule() const noexcept {
    return schedule_;
  }

  /// Crash / recovery event counts in the last compiled schedule.
  [[nodiscard]] std::int64_t crash_count() const noexcept;
  [[nodiscard]] std::int64_t recovery_count() const noexcept;

 private:
  FaultPlan plan_;
  std::uint64_t seed_;
  std::vector<FaultEvent> schedule_;
};

}  // namespace ftc::sim
