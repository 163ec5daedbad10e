// Host speed, measured alongside the workload.
//
// The benchmark runs on shared hosts whose speed drifts by 10-70% over
// seconds to minutes, as other tenants load the cores and caches the
// workload shares with them. Wall times follow that drift, so runs minutes
// apart disagree by more than the bounds in BENCHMARK.json allow. The
// benchmark therefore times a fixed reference kernel between reps and
// divides each rep's wall times by the slowdown it measured last: the
// kernel's time over kReferenceNominalS. The kernel is the benchmark's own
// code, so no library change can move it.
#pragma once

#include <cstdint>
#include <vector>

namespace ftcbench {

/// About the reference kernel's time on the baseline host in a quiet
/// stretch (benchmark/README.md, "Host-speed correction").
inline constexpr double kReferenceNominalS = 0.5e-3;

/// Neighbor averaging over a fixed random graph that fits in a core's L2
/// cache: the random reads over an adjacency array that the workloads' own
/// inner loops do. A compute-only kernel was tried first; under heavy
/// contention the workloads slowed up to twice as much as it did, but as
/// much as this kernel did.
class ReferenceKernel {
 public:
  ReferenceKernel();

  /// Wall seconds one pass takes now.
  [[nodiscard]] double time_s();

 private:
  std::vector<std::uint32_t> adjacency_;  ///< kDegree targets per node
  std::vector<double> value_;
  std::vector<double> next_;
};

}  // namespace ftcbench
