// Algorithm 2 as a faithful per-node program for the synchronous simulator.
//
// Round 0: flip the coin with p_i = min{1, x_i·ln(Δ+1)}; broadcast the
//          membership bit.                                        [1 word]
// Round 1: count closed-neighborhood members; if short of k_i, send REQ to
//          the first (shortfall) absent candidates — self first, then
//          absent neighbors in ascending id order.                [1 word]
// Round 2: absent nodes that received a REQ join; halt.
//
// Matches round_fractional() (the centralized mirror) node for node when
// the network seed equals the mirror seed.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <span>

#include "algo/rounding/rounding.h"
#include "domination/domination.h"
#include "sim/network.h"

namespace ftc::algo {

/// Per-node process implementing Algorithm 2. Construct with the node's
/// fractional value x_i (from Algorithm 1) and demand k_i, or let
/// run_rounding_processes() below install and run one per node.
class RoundingProcess final : public sim::Process {
 public:
  RoundingProcess(double x, std::int32_t demand);

  void on_round(sim::Context& ctx) override;

  /// True iff this node ended up in the dominating set (valid after halt).
  [[nodiscard]] bool in_set() const noexcept { return in_set_; }
  /// True iff membership came from the probabilistic step.
  [[nodiscard]] bool chosen_by_coin() const noexcept { return by_coin_; }

 private:
  double x_ = 0.0;
  std::int32_t demand_ = 1;
  bool in_set_ = false;
  bool by_coin_ = false;
  std::int64_t step_ = 0;
};

/// Runs Algorithm 2 as a protocol on `net` (a sim::SyncNetwork the caller
/// has configured — threads, grain, channel, plane, scheduled crashes — or
/// a sim::SynchronizedNetwork, whose channel is set at construction and
/// whose threads and plane are set on network()). Installs one
/// RoundingProcess per node with x[v] and demands[v], runs under
/// kRoundingRounds plus slack, and collects the sorted set and its
/// coin/request split. `rounds` is the rounds (pulses) executed. Metrics
/// stay on `net`.
template <typename Net>
RoundingResult run_rounding_processes(Net& net, std::span<const double> x,
                                      const domination::Demands& demands) {
  const graph::Graph& g = net.graph();
  assert(static_cast<graph::NodeId>(x.size()) == g.n());
  assert(static_cast<graph::NodeId>(demands.size()) == g.n());
  net.set_all_processes([&](graph::NodeId v) {
    const auto i = static_cast<std::size_t>(v);
    return std::make_unique<RoundingProcess>(x[i], demands[i]);
  });
  constexpr std::int64_t kSlack = 4;

  RoundingResult result;
  result.rounds = net.run(kRoundingRounds + kSlack);
  for (graph::NodeId v = 0; v < g.n(); ++v) {
    const auto& proc = net.template process_as<RoundingProcess>(v);
    if (!proc.in_set()) continue;
    result.set.push_back(v);
    ++(proc.chosen_by_coin() ? result.chosen_by_coin
                             : result.chosen_by_request);
  }
  return result;
}

}  // namespace ftc::algo
