#include "util/stats.h"

#include <algorithm>

namespace ftc::util {

void RunningStats::add(double x) noexcept {
  ++count_;
  // Welford's incremental mean; the bench tables print these exact bits.
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  max_ = std::max(max_, x);
}

}  // namespace ftc::util
