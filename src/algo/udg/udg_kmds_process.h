// Algorithm 3 as a faithful per-node program for the synchronous simulator.
//
// Requires a network built from a UnitDiskGraph (distance sensing).
//
// Schedule — Part I (R = udg_part1_rounds(n) paper rounds, 2 network rounds
// each; θ doubles every paper round). R, the id range and the first θ come
// from udg_schedule(n, options), which every node of a network shares:
//
//   round 2r:   [r > 0: process election messages; unelected actives go
//               passive] active nodes draw a fresh id from [1, n⁴] and send
//               (active, id) to every neighbor within θ.        [2 words]
//               Neighbour distances are sensed once, at round 0; while θ is
//               below the nearest of them the probe is skipped, since it
//               would reach nobody (the id is still drawn).
//   round 2r+1: active nodes elect the highest-id active sender within θ
//               (possibly themselves) and send M to it.          [1 word]
//
// Schedule — Part II (3 network rounds per while-iteration, starting at
// round 2R):
//
//   B0: [process PROMOTE messages] every running node broadcasts its leader
//       flag.                                                    [1 word]
//   B1: update the cumulative known-leader set; compute coverage c(v) and
//       the deficiency flag (!leader && c < k); broadcast it.    [1 word]
//       Only c < k is asked, so the set stops growing at k ids; it is
//       reserved at construction, and no round allocates in the process.
//   B2: leaders send PROMOTE to their (up to) k lowest-id deficient
//       neighbors. A node halts here once neither it nor any neighbor is
//       deficient.                                               [1 word]
//
// All messages are O(1) words = O(log n) bits. Produces exactly the leader
// set of solve_udg_kmds() (the centralized mirror) for the same seed.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "algo/udg/udg_kmds.h"
#include "sim/network.h"

namespace ftc::algo {

/// Per-node process implementing Algorithm 3. Construct with the uniform
/// fold parameter k (paper constants), or with full UdgOptions to match a
/// mirror run using non-default ξ / θ-scale.
class UdgKmdsProcess final : public sim::Process {
 public:
  explicit UdgKmdsProcess(std::int32_t k);
  explicit UdgKmdsProcess(const UdgOptions& options);

  void on_round(sim::Context& ctx) override;

  /// True iff this node is in the final k-fold dominating set (valid after
  /// the process halts).
  [[nodiscard]] bool leader() const noexcept { return leader_; }
  /// True iff this node survived Part I (before the Part-II extension).
  [[nodiscard]] bool part1_leader() const noexcept { return part1_leader_; }

 private:
  void ensure_initialized(sim::Context& ctx);
  void part1_even(sim::Context& ctx, std::int64_t part1_round);
  void part1_odd(sim::Context& ctx);
  void part2(sim::Context& ctx, std::int64_t phase);

  UdgOptions options_;

  bool initialized_ = false;
  std::int64_t rounds_part1_ = 0;  // R
  std::uint64_t id_max_ = 0;
  double theta_ = 0.0;
  double nearest_ = 0.0;  // min neighbour distance; +∞ when isolated

  // Part I state.
  bool active_ = true;
  bool elected_ = false;       // received an election (or elected self)
  std::uint64_t my_id_ = 0;    // this paper-round's random id
  bool part1_leader_ = false;

  // Part II state.
  bool leader_ = false;
  bool deficient_ = false;
  std::vector<graph::NodeId> known_leaders_;  // cumulative, sorted, ≤ k ids

  std::int64_t step_ = 0;
};

/// Round budget of run_udg_processes on n nodes: Part I's 2R rounds
/// (R = udg_schedule(n, options).part1_rounds) plus 3 rounds for each of
/// n + 3 Part II iterations. Some lossy runs stop at this cap, which is
/// part of bench A6's table, so it must not grow.
[[nodiscard]] std::int64_t udg_round_budget(graph::NodeId n,
                                            const UdgOptions& options);

/// Runs Algorithm 3 as a protocol on `net` (a sim::SyncNetwork or
/// sim::SynchronizedNetwork built from a UnitDiskGraph and configured by
/// the caller: on SyncNetwork threads, grain, channel, plane, scheduled
/// crashes; on SynchronizedNetwork the channel at construction, threads
/// and plane on network()). Installs one
/// UdgKmdsProcess per node, runs under udg_round_budget() and collects
/// `leaders`, `part1_leaders` and `part1_rounds` (R). No process can know
/// `part2_iterations`, `active_after_round` or `fully_satisfied`: they are
/// mirror-only and keep their defaults. Executed rounds (pulses) and
/// metrics stay on `net`.
template <typename Net>
UdgResult run_udg_processes(Net& net, const UdgOptions& options) {
  assert(net.udg() != nullptr && "Algorithm 3 requires a UDG network");
  const graph::NodeId n = net.graph().n();
  net.set_all_processes([&](graph::NodeId) {
    return std::make_unique<UdgKmdsProcess>(options);
  });
  net.run(udg_round_budget(n, options));

  UdgResult result;
  result.part1_rounds = udg_schedule(n, options).part1_rounds;
  for (graph::NodeId v = 0; v < n; ++v) {
    const auto& proc = net.template process_as<UdgKmdsProcess>(v);
    if (proc.part1_leader()) result.part1_leaders.push_back(v);
    if (proc.leader()) result.leaders.push_back(v);
  }
  return result;
}

}  // namespace ftc::algo
