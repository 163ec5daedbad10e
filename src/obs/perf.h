// Perf-attribution plane for the observability stack (DESIGN.md §12).
//
// Answers "where does round time go": per round, wall time is broken down
// by engine phase (compute, the three delivery sub-phases, channel decide,
// fault apply, obs merge, …) AND per shard, plus the ThreadPool's barrier
// wait and claim stall. From those samples the plane derives load-imbalance
// factors (max/mean shard busy time), straggler identification (which shard
// was slowest, how often, with its node/message volume), and run-wide
// attribution coverage (how much of the measured wall time the phase
// intervals explain).
//
// This is the one plane that holds wall time: the trace and the metric
// registry are logical-only, and every clock reading the library takes
// (engine phase laps, LP phases, the thread pool's stall counters) lands
// here, in this side structure and its own JSONL export, and nowhere else.
// The plane is owner-thread only: per-shard timing reaches it as the span
// end_round() takes (the determinism contract is in plane.h), so *enabling*
// the plane never perturbs the simulated execution or any other export.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string_view>
#include <vector>

namespace ftc::obs {

/// Attribution targets. The first block are the round engine's top-level
/// phases: disjoint intervals that tile a SyncNetwork round, so their sum
/// per round is the attribution-coverage numerator. The second block are
/// nested or overlapping attributions (channel decide runs inside the
/// delivery count pass; barrier wait and claim stall overlap the dispatched
/// phases) — reported, but excluded from the coverage sum. The LP block are
/// the top-level phases of one lp_kmds inner iteration.
enum class PerfPhase : std::uint8_t {
  kFaultApply = 0,   ///< scheduled crash/recovery/channel application
  kCompute,          ///< process on_round execution (dispatched)
  kStatsMerge,       ///< shard-stat fold + registry counter publication
  kObsMerge,         ///< trace/metric shard-staging merge at the barrier
  kDeliverCount,     ///< delivery: tail sizing for due delayed copies
                     ///< (near zero unless delayed copies are in flight)
  kDeliverPrefix,    ///< delivery: O(shards) tail prefix + store sizing
  kDeliverPlace,     ///< delivery: unicast push, broadcast pull, merge
  kFinalize,         ///< generation swap + gauges + round trace event
  kChannelDecide,    ///< nested in deliver_place: channel verdicts
  kBarrierWait,      ///< caller blocked on the pool's epoch barrier
  kClaimStall,       ///< pool drain time not spent executing tasks
  kLpXUpdate,        ///< lp_kmds lines 5-8: x-update + Lemma 4.1 audit
  kLpDualColor,      ///< lp_kmds lines 10-21: dual bookkeeping + coloring
  kLpDegree,         ///< lp_kmds lines 23-24: dynamic-degree update
  kLpZPass,          ///< lp_kmds line 27: final z-pass
};
inline constexpr int kPerfPhaseCount = 15;

/// Stable snake_case key used in the JSONL export and the tools.
[[nodiscard]] std::string_view perf_phase_name(PerfPhase p) noexcept;

/// True for phases whose intervals are disjoint and tile their round —
/// the only ones the attribution-coverage sum may count (summing nested or
/// overlapping phases would claim >100% coverage).
[[nodiscard]] bool perf_phase_top_level(PerfPhase p) noexcept;

/// Phases with per-shard resolution: compute, deliver_count, deliver_place
/// and channel_decide, in slot order. Everything else is owner-side only
/// (sequential barriers have no shard dimension).
inline constexpr int kPerfShardPhaseCount = 4;
/// Slot of a per-shard phase, or -1 for owner-only phases.
[[nodiscard]] int perf_shard_slot(PerfPhase p) noexcept;

/// One shard's share of one round. The round engine stages one per shard;
/// only that shard's worker writes it during the parallel phases.
struct PerfShardSample {
  std::int64_t phase_ns[kPerfShardPhaseCount] = {0, 0, 0, 0};
  std::int64_t nodes = 0;     ///< processes executed by this shard
  std::int64_t messages = 0;  ///< messages sent by this shard

  /// Attributes `ns` to a per-shard phase (asserts on owner-only phases).
  void add(PerfPhase phase, std::int64_t ns) noexcept;

  /// Parallel-phase work time: compute + count + place (channel decide is
  /// nested inside count and would double-count).
  [[nodiscard]] std::int64_t busy_ns() const noexcept;
};

/// One fully merged round.
struct PerfRoundSample {
  std::int64_t round = 0;
  std::int64_t total_ns = 0;  ///< measured wall time of the whole round
  std::int64_t phase_ns[kPerfPhaseCount] = {};
  std::vector<PerfShardSample> shards;
  double imbalance = 1.0;  ///< max/mean shard busy_ns (1.0 when idle)
  int straggler = -1;      ///< slowest shard, or -1 when no shard was busy

  /// Sum over top-level phases (the coverage numerator for this round).
  [[nodiscard]] std::int64_t attributed_ns() const noexcept;
};

/// Run-wide per-shard aggregates (never evicted).
struct PerfShardTotals {
  std::int64_t phase_ns[kPerfShardPhaseCount] = {0, 0, 0, 0};
  std::int64_t nodes = 0;
  std::int64_t messages = 0;
  std::int64_t straggler_rounds = 0;  ///< rounds this shard was the slowest

  [[nodiscard]] std::int64_t busy_ns() const noexcept;
};

/// The attribution sink. Owner-thread only, like obs::Registry.
class PerfPlane {
 public:
  /// Per-round samples the ring retains (run-wide aggregates keep all).
  static constexpr std::size_t kRingCapacity = 1u << 12;

  PerfPlane();

  PerfPlane(const PerfPlane&) = delete;
  PerfPlane& operator=(const PerfPlane&) = delete;

  /// Attribution of `ns` to `phase` for the current round.
  void add(PerfPhase phase, std::int64_t ns) noexcept;

  /// Round barrier: takes the round's per-shard samples (empty for a
  /// producer without shards, like the LP mirror) in ascending shard order,
  /// computes imbalance + straggler, appends the ring sample, and folds the
  /// run-wide aggregates.
  void end_round(std::int64_t round, std::int64_t total_ns,
                 std::span<const PerfShardSample> shards);

  [[nodiscard]] std::int64_t rounds() const noexcept { return rounds_; }
  /// Retained per-round samples, oldest first.
  [[nodiscard]] std::vector<PerfRoundSample> recent() const;
  /// Run-wide per-shard totals, sized to the widest round seen.
  [[nodiscard]] const std::vector<PerfShardTotals>& shard_totals()
      const noexcept {
    return shard_totals_;
  }
  /// Run-wide sums.
  [[nodiscard]] std::int64_t total_ns() const noexcept { return agg_total_ns_; }
  [[nodiscard]] std::int64_t phase_total_ns(PerfPhase p) const noexcept;
  /// Σ top-level phase time / Σ round wall time (0 when no rounds ended).
  [[nodiscard]] double attribution_coverage() const noexcept;
  [[nodiscard]] double mean_imbalance() const noexcept;
  [[nodiscard]] double max_imbalance() const noexcept { return imb_max_; }

  /// Steady-clock nanoseconds (callable from workers; callers take
  /// differences, so the epoch is irrelevant).
  [[nodiscard]] static std::int64_t now_ns() noexcept;

  /// Writes the side-channel JSONL: one "round" line per retained sample,
  /// then one "summary" line with run-wide aggregates, coverage, imbalance
  /// and per-shard totals.
  void export_jsonl(std::ostream& os) const;

 private:
  std::int64_t cur_phase_ns_[kPerfPhaseCount] = {};
  std::vector<PerfRoundSample> ring_;
  std::size_t head_ = 0;  ///< next write position once the ring is full
  std::int64_t rounds_ = 0;
  // Run-wide aggregates (never evicted).
  std::int64_t agg_phase_ns_[kPerfPhaseCount] = {};
  std::int64_t agg_total_ns_ = 0;
  std::vector<PerfShardTotals> shard_totals_;
  double imb_sum_ = 0.0;
  double imb_max_ = 0.0;
};

}  // namespace ftc::obs
