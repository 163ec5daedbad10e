// Luby k-fold MIS as a faithful per-node program for the synchronous
// simulator (mirror: luby.h).
//
// Test support, compiled only into ftc_tests: no program runs it. The tests
// that drive it pin the mirror's rounds formula (2·k·luby_phase_rounds(n) +
// 1), which bench E8 reports.
//
// Global schedule, derived from n (which every node knows): each of the k
// phases spans luby_phase_rounds(n) paper rounds of 2 network rounds each:
//
//   A (even): absorb JOIN announcements of the previous paper round — an
//             undecided node with a joined neighbor drops out. At a phase
//             boundary, also finalize the old phase (still-undecided nodes
//             force-join) and reset for the new one. Then every undecided
//             node draws a fresh 63-bit value and broadcasts it. [1 word]
//   B (odd):  an undecided node whose value is the strict minimum among
//             the undecided closed neighborhood (ties toward the lower id)
//             joins its fold and announces JOIN.                  [1 word]
//
// One trailing round absorbs the final JOINs; total rounds are
// 2·k·luby_phase_rounds(n) + 1, i.e. O(k log n) — the contrast class for
// Algorithm 3's O(log log n).
#pragma once

#include <cstdint>

#include "sim/network.h"

namespace ftc::algo {

/// Per-node process implementing Luby k-fold MIS clustering.
class LubyMisProcess final : public sim::Process {
 public:
  explicit LubyMisProcess(std::int32_t k);

  void on_round(sim::Context& ctx) override;

  /// True iff this node is in the final k-fold set (valid after halt).
  [[nodiscard]] bool selected() const noexcept { return selected_; }
  /// True iff the node force-joined at a phase window end (w.h.p. never).
  [[nodiscard]] bool force_joined() const noexcept { return force_joined_; }

 private:
  enum class Status : std::uint8_t { kUndecided, kJoined, kOut };

  void begin_phase();

  std::int32_t k_ = 1;
  std::int64_t budget_ = 0;  // paper rounds per phase; set at round 0
  std::int32_t phase_ = 0;
  Status status_ = Status::kUndecided;
  bool selected_ = false;
  bool force_joined_ = false;
  std::uint64_t my_value_ = 0;
  std::int64_t step_ = 0;
};

}  // namespace ftc::algo
