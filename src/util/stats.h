// Streaming aggregation for experiment measurements.
//
// Benchmarks repeat every configuration over several seeds and report the
// mean (and, for some columns, the maximum) of the per-seed measurements.
#pragma once

#include <cstddef>
#include <limits>

namespace ftc::util {

/// Streaming accumulator for the mean and maximum of a sample. Suitable
/// when the individual samples need not be retained.
class RunningStats {
 public:
  /// Adds one observation.
  void add(double x) noexcept;

  /// Number of observations added so far.
  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  /// Arithmetic mean of the observations (0 if empty).
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Largest observation (-inf if empty).
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace ftc::util
