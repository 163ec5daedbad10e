// LRG (Jia–Rajaraman–Suel style) as a faithful per-node program for the
// synchronous simulator (mirror: lrg.h).
//
// Test support, compiled only into ftc_tests: no program runs it. The tests
// that drive it pin the mirror's rounds formula (iterations ×
// kLrgRoundsPerIteration), which bench E8 reports.
//
// One LRG iteration spans kLrgRoundsPerIteration = 6 network rounds:
//
//   A0: absorb JOIN announcements (previous iteration) into the residual
//       demand; broadcast the deficiency flag.                    [1 word]
//   A1: compute span = #deficient closed neighbors and its power-of-two
//       rounding; broadcast the rounding.                         [1 word]
//   A2: hop-1 max of the roundings; broadcast it. A node halts here once
//       its whole closed neighborhood reports zero spans — no deficiency
//       within two hops can ever reappear (residuals only shrink), and a
//       silent node is indistinguishable from one broadcasting zeros.
//                                                                 [1 word]
//   A3: hop-2 max; candidate iff own rounding > 0 and equals the 2-hop
//       max; broadcast the candidate flag.                        [1 word]
//   A4: deficient nodes count candidate closed neighbors (their support)
//       and broadcast support+1 (0 = not deficient).              [1 word]
//   A5: candidates take the (upper) median support over the deficient
//       closed neighborhood and join with probability 1/median;
//       joiners announce JOIN.                                    [1 word]
//
// For equal seeds the process computes exactly the mirror's set; the
// shared iteration cap lrg_max_iterations(n, Δ) bounds the runtime.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/network.h"

namespace ftc::algo {

/// Per-node process implementing LRG for k-fold demands.
class LrgProcess final : public sim::Process {
 public:
  /// `demand` is this node's k_i.
  explicit LrgProcess(std::int32_t demand);

  void on_round(sim::Context& ctx) override;

  /// True iff this node is in the dominating set (valid after halt).
  [[nodiscard]] bool selected() const noexcept { return selected_; }
  /// This node's remaining unmet demand (0 on feasible instances).
  [[nodiscard]] std::int32_t residual() const noexcept { return residual_; }

 private:
  std::int32_t residual_ = 0;
  bool selected_ = false;
  bool joined_this_iteration_ = false;

  // Per-iteration scratch.
  std::int64_t span_ = 0;
  std::int64_t rounded_ = 0;
  std::int64_t hop1_max_ = 0;
  std::int64_t own_support_ = 0;
  bool candidate_ = false;

  std::int64_t max_iterations_ = 0;  // set at round 0
  std::int64_t step_ = 0;
};

}  // namespace ftc::algo
