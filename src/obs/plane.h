// Observability plane: one Registry + one Trace, plus the pre-registered
// ids everything in the simulator stack publishes under (DESIGN.md §7).
//
// A Plane is attached to a network with SyncNetwork::set_observability();
// processes reach it through sim::Context::obs(), which hands them their
// shard's Recorder. A detached network (the default) pays one null check
// per round phase — bench_simcore_mt's `obs` rows price each mode.
//
// Determinism contract. Registry, Trace and PerfPlane are owner-thread
// sinks. A worker writes observability state only through its shard's
// Recorder, which stages counter deltas, histogram samples and trace events
// in emission order. At the sequential round barrier, merge_shards() folds
// the recorders in ascending shard order into Registry::add/record and
// Trace::emit. Shards cover ascending contiguous node ranges and run their
// nodes in ascending order, so the folded trace stream is the one-thread
// emission order at every width, and counter and histogram folds are
// integer sums. Registry and Trace hold logical facts only — rounds,
// counts, node ids — so every export is bitwise identical at every width.
// Wall time lives in the PerfPlane alone: per-shard timing takes the same
// route without a Recorder, as the engine stages one PerfShardSample per
// shard and hands them to PerfPlane::end_round in shard order.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/perf.h"
#include "obs/trace.h"

namespace ftc::util {
struct ObsFlags;
}

namespace ftc::obs {

/// Ids fixed at Plane construction so hot paths index arrays instead of
/// hashing names. Metric names double as the registry JSON keys.
struct Builtin {
  // Counters.
  MetricId rounds = kInvalidMetric;            ///< sim.rounds
  MetricId messages = kInvalidMetric;          ///< sim.messages
  MetricId words = kInvalidMetric;             ///< sim.words
  MetricId messages_lost = kInvalidMetric;     ///< sim.messages_lost
  MetricId messages_duplicated = kInvalidMetric;  ///< sim.messages_duplicated
  MetricId messages_reordered = kInvalidMetric;   ///< sim.messages_reordered
  MetricId transport_frames = kInvalidMetric;     ///< transport.frames
  MetricId transport_retransmissions = kInvalidMetric;  ///< transport.retransmissions
  MetricId transport_dup_drops = kInvalidMetric;  ///< transport.duplicates_dropped
  MetricId transport_acks = kInvalidMetric;       ///< transport.acks
  MetricId crashes = kInvalidMetric;           ///< sim.crashes
  MetricId recoveries = kInvalidMetric;        ///< sim.recoveries
  MetricId scheduled_crashes = kInvalidMetric;     ///< fault.scheduled_crashes
  MetricId scheduled_recoveries = kInvalidMetric;  ///< fault.scheduled_recoveries
  MetricId suspicions = kInvalidMetric;        ///< detector.suspicions
  MetricId refutations = kInvalidMetric;       ///< detector.refutations
  MetricId promotions = kInvalidMetric;        ///< repair.promotions
  MetricId repair_waves = kInvalidMetric;      ///< repair.waves
  MetricId lp_iterations = kInvalidMetric;     ///< lp.iterations
  MetricId rounding_trials = kInvalidMetric;   ///< rounding.trials
  MetricId probe_doublings = kInvalidMetric;   ///< udg.probe_doublings
  // Gauges (sequential-only, set at the round barrier).
  MetricId live_nodes = kInvalidMetric;        ///< sim.live_nodes
  MetricId running_nodes = kInvalidMetric;     ///< sim.running_nodes
  MetricId arena_words = kInvalidMetric;       ///< sim.arena_words
  MetricId max_message_words = kInvalidMetric; ///< sim.max_message_words
  // Histograms.
  MetricId messages_per_round = kInvalidMetric;  ///< sim.messages_per_round
  MetricId wave_joins = kInvalidMetric;          ///< repair.wave_joins
  MetricId coverage_deficit = kInvalidMetric;    ///< repair.coverage_deficit

  // Trace event names.
  NameId n_round = 0;           ///< per-round engine summary
  NameId n_crash = 0;           ///< instant fault events
  NameId n_recover = 0;
  NameId n_fault_plan = 0;      ///< injector installed a compiled schedule
  NameId n_suspect = 0;         ///< detector events
  NameId n_refute = 0;
  NameId n_promote = 0;         ///< repair events
  NameId n_lp_iteration = 0;    ///< algorithm phase events
  NameId n_rounding_trial = 0;
  NameId n_probe_doubling = 0;
};

/// One shard's emission handle, handed to processes by sim::Context::obs().
/// Between two Plane::merge_shards() calls it is written by its shard's
/// thread only; it reads nothing the owner thread writes meanwhile.
class Recorder {
 public:
  [[nodiscard]] const Builtin& builtin() const noexcept { return *builtin_; }

  void count(MetricId id, std::int64_t delta = 1) {
    // A counter folds as a sum, so back-to-back counts of one id share an
    // entry; per-node counters then stage one entry per shard and round.
    if (!counts_.empty() && counts_.back().first == id) {
      counts_.back().second += delta;
    } else {
      counts_.emplace_back(id, delta);
    }
  }
  void record(MetricId id, double value) { records_.emplace_back(id, value); }
  void event(Category c, Severity s, NameId name, std::int64_t round,
             std::int32_t node, std::int64_t a0 = 0, std::int64_t a1 = 0) {
    if (!trace_->enabled(c, s)) return;
    TraceEvent e;
    e.round = round;
    e.node = node;
    e.category = c;
    e.severity = s;
    e.name = name;
    e.a0 = a0;
    e.a1 = a1;
    events_.push_back(e);
  }

 private:
  friend class Plane;
  Recorder(const Builtin* builtin, const Trace* trace)
      : builtin_(builtin), trace_(trace) {}

  const Builtin* builtin_;
  const Trace* trace_;
  std::vector<std::pair<MetricId, std::int64_t>> counts_;
  std::vector<std::pair<MetricId, double>> records_;
  std::vector<TraceEvent> events_;
};

struct PlaneOptions {
  Trace::Options trace;
  bool perf = false;  ///< attach a PerfPlane (attribution timing, §12)
};

class Plane {
 public:
  explicit Plane(PlaneOptions options = {});

  Plane(const Plane&) = delete;
  Plane& operator=(const Plane&) = delete;

  [[nodiscard]] Registry& metrics() noexcept { return metrics_; }
  [[nodiscard]] const Registry& metrics() const noexcept { return metrics_; }
  [[nodiscard]] Trace& trace() noexcept { return trace_; }
  [[nodiscard]] const Trace& trace() const noexcept { return trace_; }
  [[nodiscard]] const Builtin& builtin() const noexcept { return builtin_; }

  /// The perf-attribution plane, or nullptr when PlaneOptions.perf was
  /// false. The round engine caches this pointer.
  [[nodiscard]] PerfPlane* perf() noexcept { return perf_.get(); }
  [[nodiscard]] const PerfPlane* perf() const noexcept { return perf_.get(); }

  /// Sizes the per-shard recorders while they are empty: SyncNetwork calls
  /// it when the plane is attached or the width set, before round 0.
  void set_shards(int shards);
  /// The staging handle of `shard` < the set_shards() count.
  [[nodiscard]] Recorder& recorder(int shard) noexcept {
    return recorders_[static_cast<std::size_t>(shard)];
  }
  /// Round barrier: drains every recorder, in ascending shard order, into
  /// the registry and the trace (see the file comment).
  void merge_shards();

 private:
  Registry metrics_;
  Trace trace_;
  std::unique_ptr<PerfPlane> perf_;
  Builtin builtin_;
  std::vector<Recorder> recorders_;
};

/// Builds a Plane from the --trace / --metrics flag group (util/cli.h), or
/// nullptr when neither flag was given. Throws std::invalid_argument on an
/// unknown category or severity name.
[[nodiscard]] std::unique_ptr<Plane> make_plane(const util::ObsFlags& flags);

/// Writes the flag-selected outputs: the registry JSON to --metrics, and
/// the trace to --trace — Chrome trace_event at the given path plus the
/// deterministic JSONL stream at "<path>.jsonl" (a path already ending in
/// .jsonl writes the JSONL stream only).
void export_plane(const Plane& plane, const util::ObsFlags& flags);

}  // namespace ftc::obs
