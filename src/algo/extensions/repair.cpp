#include "algo/extensions/repair.h"

#include <algorithm>
#include <cassert>

namespace ftc::algo {

using domination::Demands;
using graph::NodeId;

RepairResult repair_after_failures(const graph::Graph& g,
                                   std::span<const NodeId> old_set,
                                   std::span<const NodeId> failed,
                                   const Demands& demands) {
  assert(static_cast<NodeId>(demands.size()) == g.n());
  const auto n = static_cast<std::size_t>(g.n());

  RepairResult result;
  std::vector<std::uint8_t> dead(n, 0);
  for (NodeId v : failed) dead[static_cast<std::size_t>(v)] = 1;
  std::vector<std::uint8_t> member(n, 0);
  for (NodeId v : old_set) {
    const auto i = static_cast<std::size_t>(v);
    if (!dead[i]) member[i] = 1;
  }

  // Damage region: the live part of the failed nodes' two-hop ball — only
  // those nodes can have lost coverage (1 hop) or be promotion candidates
  // whose spans changed (2 hops). Everything else is untouched.
  std::vector<std::uint8_t> ball(n, 0);
  std::vector<NodeId> ball1;
  mark_two_hop_ball(g, failed, ball, ball1);
  std::vector<NodeId> touched;
  for (std::size_t i = 0; i < n; ++i) {
    if (ball[i] && !dead[i]) touched.push_back(static_cast<NodeId>(i));
  }
  result.touched = static_cast<std::int64_t>(touched.size());

  // Live coverage and residual demand of a node.
  auto live_coverage = [&](NodeId v) {
    const auto vi = static_cast<std::size_t>(v);
    std::int32_t c = member[vi] ? 1 : 0;  // self (closed neighborhood)
    for (NodeId w : g.neighbors(v)) {
      const auto wi = static_cast<std::size_t>(w);
      if (!dead[wi] && member[wi]) ++c;
    }
    return c;
  };
  auto residual_of = [&](NodeId v) -> std::int32_t {
    const auto vi = static_cast<std::size_t>(v);
    if (dead[vi]) return 0;
    return std::max(0, demands[vi] - live_coverage(v));
  };

  std::vector<NodeId> worklist;
  const PromotionWave wave = promotion_wave(
      g, touched, residual_of,
      [&](NodeId c) {
        const auto ci = static_cast<std::size_t>(c);
        return !dead[ci] && !member[ci];
      },
      [&](NodeId c) { member[static_cast<std::size_t>(c)] = 1; }, worklist);
  result.promoted = wave.promoted;
  result.fully_satisfied = wave.fully_satisfied;

  result.set = domination::to_node_list(member);
  return result;
}

}  // namespace ftc::algo
