// Algorithm 1 as a faithful per-node program for the synchronous simulator.
//
// Message schedule (matching the paper's "every iteration of the inner loop
// can be computed in 2 rounds", proof of Theorem 4.5):
//
//   round 2m   (m = 0..t²-1): [receive colors of iteration m-1, update δ̃]
//                             x-update of iteration m;
//                             send (x_i, x_i⁺, δ̃_i)            [3 words]
//   round 2m+1:               receive the x⁺-values; update c, α, β, color;
//                             send col_i                        [1 word]
//   round 2t²:                receive final colors; for every neighbor j
//                             send the z-share α_{j,i}·y_i − β_{j,i}
//                                                               [1 word]
//   round 2t²+1:              receive shares, z_i := Σ_j share_j; halt.
//
// Every message is a constant number of words, i.e. O(log n) bits, as the
// model requires. Fractional values are carried in fixed-point (see
// sim/message.h); the centralized mirror applies the same quantization, so
// the two implementations produce identical results for equal inputs.
//
// Crash tolerance: a crashed neighbor simply stops sending; its x⁺
// contribution is treated as 0 and its color as gray. The algorithm then
// degrades gracefully (it computes a solution for the surviving subgraph).
#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "algo/lp/lp_kmds.h"
#include "sim/network.h"

namespace ftc::algo {

/// Per-node process implementing Algorithm 1. Install one per node with the
/// node's demand k_i and the global parameter t, then run the network for
/// lp_round_count(t) rounds; run_lp_processes() below does both.
class LpKmdsProcess final : public sim::Process {
 public:
  /// `demand` is this node's k_i; `t` is the trade-off parameter (≥ 1).
  /// With DegreeKnowledge::kTwoHop the process prepends a 2-round warm-up
  /// that computes the 2-hop maximum degree (the Remark's Δ-free variant),
  /// which adds 2 rounds to lp_round_count(t).
  LpKmdsProcess(std::int32_t demand, int t,
                DegreeKnowledge degree_knowledge = DegreeKnowledge::kGlobal);

  void on_round(sim::Context& ctx) override;

  /// Results, valid after the process halts.
  [[nodiscard]] double x() const noexcept { return x_; }
  [[nodiscard]] double y() const noexcept { return y_; }
  [[nodiscard]] double z() const noexcept { return z_; }
  /// True once c_i ≥ k_i (node colored gray).
  [[nodiscard]] bool covered() const noexcept { return !white_; }

 private:
  void ensure_initialized(sim::Context& ctx);
  void update_dynamic_degree(sim::Context& ctx);
  void do_x_update_and_send(sim::Context& ctx);
  void do_cover_update_and_send(sim::Context& ctx);
  void send_z_shares(sim::Context& ctx);
  void finish_z(sim::Context& ctx);

  /// Enters outer iteration p: reads threshold_ and inv_dp_ from lp_power
  /// only when p changed (every t inner iterations), so under kTwoHop,
  /// where neighbouring nodes evict each other's memo row, a node still
  /// makes at most 2 std::pow calls per p.
  void set_outer_index(int p);

  // Configuration.
  std::int32_t demand_ = 1;
  int t_ = 1;
  DegreeKnowledge degree_knowledge_ = DegreeKnowledge::kGlobal;
  std::int64_t warmup_hop1_ = 0;  // scratch during the kTwoHop warm-up
  int warmup_rounds_ = 0;

  // Derived once at round 0.
  bool initialized_ = false;
  double d1_ = 0.0;  // Δ+1
  int outer_p_ = -1;        // p the two values below were computed for
  double threshold_ = 0.0;  // (Δ+1)^{p/t}
  double inv_dp_ = 0.0;     // (Δ+1)^{-p/t}

  // Paper state.
  double x_ = 0.0;
  double x_plus_ = 0.0;
  double c_ = 0.0;
  double y_ = 0.0;
  double z_ = 0.0;
  bool white_ = true;
  std::int32_t dyn_deg_ = 0;
  // α_{j,i} and β_{j,i} by closed-neighborhood slot: 0 = self, k+1 = the
  // k-th neighbor. One block per node, allocated at round 0.
  std::vector<AlphaBeta> ab_;

  // Schedule position.
  std::int64_t step_ = 0;  // local round counter
};

/// Runs Algorithm 1 as a protocol on `net` (a sim::SyncNetwork the caller
/// has configured — threads, grain, channel, plane, scheduled crashes — or
/// a sim::SynchronizedNetwork, whose channel is set at construction and
/// whose threads and plane are set on network()). Installs one
/// LpKmdsProcess per node, runs under the protocol's budget — the exact
/// schedule (lp_round_count(t), +2 with kTwoHop) plus slack, so an overrun
/// shows — and collects x, y, z.
/// `rounds` is the rounds (pulses) executed; `kappa` is t(Δ+1)^{1/t} with
/// the global Δ, as in the mirror. `max_lemma41_ratio` is mirror-only and
/// stays 0. Metrics stay on `net`.
template <typename Net>
LpResult run_lp_processes(
    Net& net, const domination::Demands& demands, int t,
    DegreeKnowledge degree_knowledge = DegreeKnowledge::kGlobal) {
  const graph::Graph& g = net.graph();
  assert(static_cast<graph::NodeId>(demands.size()) == g.n());
  net.set_all_processes([&](graph::NodeId v) {
    return std::make_unique<LpKmdsProcess>(
        demands[static_cast<std::size_t>(v)], t, degree_knowledge);
  });
  const std::int64_t warmup =
      degree_knowledge == DegreeKnowledge::kTwoHop ? 2 : 0;
  constexpr std::int64_t kSlack = 4;

  LpResult result;
  result.rounds = net.run(lp_round_count(t) + warmup + kSlack);
  result.kappa = static_cast<double>(t) *
                 std::pow(static_cast<double>(g.max_degree()) + 1.0, 1.0 / t);
  for (graph::NodeId v = 0; v < g.n(); ++v) {
    const auto& proc = net.template process_as<LpKmdsProcess>(v);
    result.primal.x.push_back(proc.x());
    result.dual.y.push_back(proc.y());
    result.dual.z.push_back(proc.z());
  }
  return result;
}

}  // namespace ftc::algo
