// Metric registry for the observability plane (DESIGN.md §7).
//
// Three metric kinds, all integer-valued at rest:
//
//   * counter   — monotonically accumulated int64 (messages sent, crashes);
//   * gauge     — last-set int64 (live nodes, arena occupancy). Gauges are
//                 sequential-only: they are set from the owner thread at the
//                 round barrier, never from worker shards, because "last
//                 write wins" is not a commutative merge;
//   * histogram — fixed-bucket counts over half-open ranges
//                 [bounds[i-1], bounds[i]), plus a trailing overflow bucket
//                 for values >= bounds.back(). A value exactly on an edge
//                 lands in the upper bucket.
//
// The registry is owner-thread only. Worker shards never touch it: they
// stage through their obs::Recorder, which Plane::merge_shards() folds in
// with add()/record() at the round barrier (the determinism contract lives
// in plane.h). Gauges have no staged form.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace ftc::obs {

using MetricId = std::uint32_t;
inline constexpr MetricId kInvalidMetric = 0xFFFFFFFFu;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Point-in-time copy of one histogram. counts.size() == bounds.size() + 1;
/// the last entry is the overflow bucket.
struct HistogramSnapshot {
  std::vector<double> bounds;
  std::vector<std::int64_t> counts;

  [[nodiscard]] std::int64_t total() const noexcept;
};

/// Ascending power-of-two bucket bounds 2^lo_exp .. 2^hi_exp (inclusive),
/// the standard shape for message/size distributions.
[[nodiscard]] std::vector<double> pow2_bounds(int lo_exp, int hi_exp);

/// Named metric definitions plus their values. Not thread-safe: one owner
/// thread registers, mutates and exports.
class Registry {
 public:
  Registry() = default;

  /// Registration. Re-registering an existing name with the same kind
  /// returns the existing id (idempotent); a kind mismatch throws
  /// std::invalid_argument. Registration is sequential-only.
  MetricId counter(std::string name);
  MetricId gauge(std::string name);
  MetricId histogram(std::string name, std::vector<double> bounds);

  [[nodiscard]] MetricId find(std::string_view name) const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return defs_.size(); }
  [[nodiscard]] const std::string& name(MetricId id) const;
  [[nodiscard]] MetricKind kind(MetricId id) const;

  /// Sequential mutation (owner thread, outside the parallel region).
  void add(MetricId id, std::int64_t delta);    // counters
  void set(MetricId id, std::int64_t value);    // gauges
  void record(MetricId id, double value);       // histograms

  /// Current value of a counter or gauge.
  [[nodiscard]] std::int64_t value(MetricId id) const;
  /// Current contents of a histogram.
  [[nodiscard]] HistogramSnapshot histogram_snapshot(MetricId id) const;

  /// Writes the whole registry as a single JSON object: counters and gauges
  /// as numbers, histograms as {"bounds": [...], "counts": [...]}. Every
  /// metric is a logical fact, so the document is bitwise identical at
  /// every engine width.
  void write_json(std::ostream& os) const;

  /// Bucket index of `value` for the given bounds (shared with the tests):
  /// first i with value < bounds[i], or bounds.size() for overflow.
  [[nodiscard]] static std::size_t bucket_of(const std::vector<double>& bounds,
                                             double value) noexcept;

 private:
  struct Def {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    std::size_t slot = 0;  ///< index into scalars_ or hists_
  };
  struct Hist {
    std::vector<double> bounds;
    std::vector<std::int64_t> counts;  ///< bounds.size() + 1
  };
  MetricId define(std::string name, MetricKind kind);
  [[nodiscard]] const Def& def(MetricId id) const;

  std::vector<Def> defs_;
  std::vector<std::int64_t> scalars_;
  std::vector<Hist> hists_;
};

}  // namespace ftc::obs
