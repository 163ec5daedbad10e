#include "host_speed.h"

#include "inputs.h"
#include "spans.h"

namespace ftcbench {

namespace {

constexpr std::size_t kNodes = 16'384;
constexpr std::size_t kDegree = 8;
/// Sweeps per pass: about 0.5 ms on the baseline host.
constexpr int kSweeps = 8;
constexpr std::uint64_t kGraphSeed = 0x7265666572656E63ULL;

}  // namespace

ReferenceKernel::ReferenceKernel()
    : adjacency_(kNodes * kDegree), value_(kNodes, 1.0), next_(kNodes, 0.0) {
  SplitMix64 rng(kGraphSeed);
  for (std::uint32_t& target : adjacency_) {
    target = static_cast<std::uint32_t>(rng.below(kNodes));
  }
  (void)time_s();  // page in and warm the arrays
}

double ReferenceKernel::time_s() {
  const std::int64_t t0 = now_ns();
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    for (std::size_t v = 0; v < kNodes; ++v) {
      double sum = 0.0;
      for (std::size_t j = 0; j < kDegree; ++j) sum += value_[adjacency_[v * kDegree + j]];
      next_[v] = sum / kDegree;
    }
    value_.swap(next_);
  }
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

}  // namespace ftcbench
