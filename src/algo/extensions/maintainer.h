// Incremental maintenance of a k-fold dominating set under live churn
// (DESIGN.md §13).
//
// repair_after_failures restores coverage after crashes; this generalizes
// it to the full mutation vocabulary of sim::DynamicWorld — joins,
// departures, moves, edge flips — on the same local-repair core (the
// two-hop ball and span-then-id promotion wave in repair.h): per mutation
// batch, only the affected two-hop ball is examined and only nodes inside
// it change membership. A full greedy re-solve recomputes
// every node's decision; the maintainer's work (and its membership churn)
// scales with the damage, not with n. bench_dynamic measures the gap.
//
// Contract (the DynamicOracle checks every clause per fuzzed trace):
//   * k-coverage: if membership fully covered the effective demands before
//     the batch, it fully covers them after. Effective demand of an active
//     node is min(k, deg+1) — the clamp_demands convention; inactive nodes
//     demand and provide nothing.
//   * locality: membership changes only inside ball2 = the two-hop
//     neighborhood (in the post-mutation graph) of the batch's seed nodes
//     (mutated nodes, anchors, and delta-edge endpoints).
//   * bounded over-promotion: promotions <= the batch's coverage deficiency
//     (each greedy promotion satisfies at least one missing unit).
//   * determinism: identical inputs produce identical membership, changed
//     lists, and counters.
//
// Cost: a batch's work and allocations are proportional to its ball, not to
// n. The scratch arrays below only grow (resize, never assign), and each
// batch returns them to all-zero by clearing exactly the entries it marked:
// the seeds, the changed nodes, and ball1 ∪ N(ball1). The only per-batch
// allocation is the returned `changed` list, and only when it is non-empty.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/dynamic.h"
#include "obs/metrics.h"
#include "sim/mutation.h"

namespace ftc::obs {
class Plane;
}

namespace ftc::algo {

struct MaintainerOptions {
  std::int32_t k = 1;   ///< redundancy target (clamped per node to deg+1)
  bool demote = true;   ///< demote members made redundant by the batch
  bool promote = true;  ///< promotion waves (off only in mutant harnesses)
};

/// Outcome of one apply_batch call.
struct MaintainResult {
  std::int64_t promoted = 0;  ///< non-members pulled into the set
  std::int64_t demoted = 0;   ///< redundant members released
  std::int64_t dropped = 0;   ///< members removed because they departed
  std::int64_t ball1 = 0;     ///< nodes whose coverage was audited (1-hop)
  std::int64_t ball2 = 0;     ///< locality ball size (2-hop)
  /// Every node whose membership changed, ascending. The oracle checks
  /// this is exactly the pre/post membership diff and lies inside ball2.
  std::vector<graph::NodeId> changed;
  /// False only if a deficiency could not be repaired — impossible under
  /// the clamped-demand convention, kept as a defensive signal (mirrors
  /// RepairResult::fully_satisfied).
  bool fully_satisfied = true;

  friend bool operator==(const MaintainResult&,
                         const MaintainResult&) = default;
};

/// Stateful incremental k-MDS maintainer. Feed it the world's graph, the
/// active flags, and each batch's AppliedMutations (from
/// DynamicWorld::apply); it keeps its membership fully covering between
/// batches. Precondition: the initial set fully covers the initial
/// topology's effective demands (e.g. any greedy/LP solution).
class IncrementalMaintainer {
 public:
  /// Throws std::invalid_argument if n < 0, options.k < 1, or an
  /// initial_set id lies outside [0, n).
  IncrementalMaintainer(graph::NodeId n,
                        std::span<const graph::NodeId> initial_set,
                        MaintainerOptions options = {});

  /// Publishes dyn.* metrics (batches, mutations, promotions, demotions,
  /// drops, ball/changed size histograms, member gauge) to the plane's
  /// registry. Pass nullptr to detach.
  void bind_plane(obs::Plane* plane);

  /// Applies one mutation batch. `g`/`active` must be the post-mutation
  /// world state; `batch` the AppliedMutations that produced it. Throws
  /// std::invalid_argument, changing nothing, if active.size() != g.n() or
  /// g has fewer nodes than the last batch's (topologies only grow).
  MaintainResult apply_batch(const graph::MutableGraph& g,
                             std::span<const std::uint8_t> active,
                             std::span<const sim::AppliedMutation> batch);

  /// One byte per node, 1 = member. Size tracks the last-seen n.
  [[nodiscard]] const std::vector<std::uint8_t>& membership() const noexcept {
    return member_;
  }

  [[nodiscard]] bool is_member(graph::NodeId v) const noexcept {
    return v >= 0 && static_cast<std::size_t>(v) < member_.size() &&
           member_[static_cast<std::size_t>(v)] != 0;
  }

  /// Member ids, ascending.
  [[nodiscard]] std::vector<graph::NodeId> member_set() const;

  [[nodiscard]] std::int64_t members() const noexcept { return members_; }

  [[nodiscard]] const MaintainerOptions& options() const noexcept {
    return options_;
  }

  // Lifetime totals across batches.
  [[nodiscard]] std::int64_t batches() const noexcept { return batches_; }
  [[nodiscard]] std::int64_t total_promoted() const noexcept {
    return total_promoted_;
  }
  [[nodiscard]] std::int64_t total_demoted() const noexcept {
    return total_demoted_;
  }

 private:
  void publish(const MaintainResult& result, std::size_t mutations);

  MaintainerOptions options_;
  std::vector<std::uint8_t> member_;
  std::int64_t members_ = 0;  ///< count of set bytes in member_

  std::int64_t batches_ = 0;
  std::int64_t total_promoted_ = 0;
  std::int64_t total_demoted_ = 0;

  obs::Plane* plane_ = nullptr;
  obs::MetricId batches_id_ = obs::kInvalidMetric;
  obs::MetricId mutations_id_ = obs::kInvalidMetric;
  obs::MetricId promotions_id_ = obs::kInvalidMetric;
  obs::MetricId demotions_id_ = obs::kInvalidMetric;
  obs::MetricId dropped_id_ = obs::kInvalidMetric;
  obs::MetricId members_id_ = obs::kInvalidMetric;
  obs::MetricId ball_hist_id_ = obs::kInvalidMetric;
  obs::MetricId changed_hist_id_ = obs::kInvalidMetric;

  // Scratch reused across batches: grown to n on entry, all-zero between
  // batches (see the file header).
  std::vector<std::uint8_t> seed_mark_;
  /// 0 = outside, 1 = ball2 \ ball1, 2 = ball1, 3 = ball2 \ ball1 with
  /// cover_ filled.
  std::vector<std::uint8_t> ball_;
  /// Closed-neighborhood coverage, exact wherever ball_ >= 2.
  std::vector<std::int32_t> cover_;
  std::vector<std::uint8_t> promoted_now_;
  std::vector<graph::NodeId> seeds_;
  std::vector<graph::NodeId> ball1_;
  std::vector<graph::NodeId> changed_;
  std::vector<graph::NodeId> worklist_;  ///< promotion_wave's heap
};

}  // namespace ftc::algo
