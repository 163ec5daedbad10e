// Local repair of a k-fold dominating set after node failures.
//
// The fault-tolerance story of the paper's introduction has two halves:
// k-fold redundancy *masks* failures for a while (experiment E9), and when
// coverage finally erodes, the network must re-cluster. A full re-run of
// any construction algorithm touches every node; this extension instead
// repairs *locally*: only neighborhoods that actually lost coverage act.
//
// repair_after_failures() removes the failed nodes from the set and the
// graph, finds every live node whose residual demand is no longer met, and
// greedily promotes live non-member neighbors (highest deficiency-span
// first, ties toward smaller ids) until all satisfiable demands are met
// again. The touched region is exactly the 2-hop neighborhood of the
// failed dominators — the cost scales with the damage, not with n.
//
// This is a centralized statement of what a distributed repair would do in
// O(1) rounds per promotion wave; the bench (A4) compares its cost against
// full re-clustering.
//
// The locality ball and the promotion wave below are the one local-repair
// core: repair_after_failures runs them on the pre-failure Graph with honest
// live coverage, and IncrementalMaintainer (maintainer.h) runs them on the
// post-mutation MutableGraph with its cached ball1 coverage.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "domination/domination.h"
#include "graph/graph.h"

namespace ftc::algo {

/// Marks the two-hop locality ball of `seeds`: ball1 = seeds ∪ N(seeds) gets
/// mark 2, ball2 \ ball1 (ball2 = ball1 ∪ N(ball1)) gets mark 1. `mark` must
/// be all-zero and cover every id. Sets `ball1` to ball1 in discovery order
/// and returns |ball2|. `G` is any graph whose neighbors(v) is a span of ids
/// (Graph, MutableGraph).
template <class G>
std::int64_t mark_two_hop_ball(const G& g, std::span<const graph::NodeId> seeds,
                               std::span<std::uint8_t> mark,
                               std::vector<graph::NodeId>& ball1) {
  ball1.clear();
  auto reach = [&](graph::NodeId v) {
    auto& m = mark[static_cast<std::size_t>(v)];
    if (m != 2) {
      m = 2;
      ball1.push_back(v);
    }
  };
  for (graph::NodeId s : seeds) reach(s);
  const std::size_t seed_count = ball1.size();
  for (std::size_t i = 0; i < seed_count; ++i) {
    for (graph::NodeId w : g.neighbors(ball1[i])) reach(w);
  }
  auto ball2 = static_cast<std::int64_t>(ball1.size());
  for (graph::NodeId v : ball1) {
    for (graph::NodeId w : g.neighbors(v)) {
      auto& m = mark[static_cast<std::size_t>(w)];
      if (m == 0) {
        m = 1;
        ++ball2;
      }
    }
  }
  return ball2;
}

/// Outcome of one promotion wave.
struct PromotionWave {
  std::int64_t promoted = 0;
  bool fully_satisfied = true;  ///< false iff some deficient node had no
                                ///< candidate left in its closed nbhd
};

/// The span-then-id promotion wave. Starting from the nodes of `region` with
/// residual_of(v) > 0, repeatedly take the smallest deficient id v and
/// promote the candidate in N[v] whose closed neighborhood holds the most
/// deficient nodes (ties toward the smaller id); promotion changes
/// residuals only in N[best], so only those are re-examined.
///   residual_of(v)  -> int32  unmet demand of v (<= 0 = satisfied)
///   is_candidate(c) -> bool   c may join (live non-member)
///   promote(c)                admit c; afterwards residual_of must reflect
///                             the extra unit of coverage on N[c]
/// `heap` is caller-owned worklist storage, reused across waves; its
/// contents on entry are discarded. Deterministic for deterministic
/// callbacks.
///
/// The worklist is a min-heap of ids with lazy deletion. Residuals only fall
/// during a wave and candidates only leave, so an entry whose residual
/// reached 0 is stale for good and is skipped when popped, and a node with
/// no candidate in N[v] is never re-queued. The live entries are therefore
/// exactly the deficient set an ordered set would hold, popped in the same
/// smallest-id order.
template <class G, class Residual, class Candidate, class Promote>
PromotionWave promotion_wave(const G& g, std::span<const graph::NodeId> region,
                             Residual&& residual_of, Candidate&& is_candidate,
                             Promote&& promote,
                             std::vector<graph::NodeId>& heap) {
  using graph::NodeId;
  const std::greater<NodeId> min_first;
  PromotionWave wave;
  heap.clear();
  for (NodeId v : region) {
    if (residual_of(v) > 0) heap.push_back(v);
  }
  std::make_heap(heap.begin(), heap.end(), min_first);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), min_first);
    const NodeId v = heap.back();
    heap.pop_back();
    if (residual_of(v) <= 0) continue;  // stale, or a duplicate entry
    NodeId best = -1;
    std::int64_t best_span = -1;
    auto consider = [&](NodeId c) {
      if (!is_candidate(c)) return;
      std::int64_t span = residual_of(c) > 0 ? 1 : 0;
      for (NodeId w : g.neighbors(c)) {
        if (residual_of(w) > 0) ++span;
      }
      if (span > best_span) {
        best_span = span;
        best = c;
      }
    };
    consider(v);
    for (NodeId w : g.neighbors(v)) consider(w);

    if (best == -1) {
      // v's whole live closed neighborhood is already in the set: the
      // demand is unsatisfiable.
      wave.fully_satisfied = false;
      continue;
    }

    promote(best);
    ++wave.promoted;
    // best is in N[v], so v is re-queued here while still deficient.
    auto reexamine = [&](NodeId u) {
      if (residual_of(u) > 0) {
        heap.push_back(u);
        std::push_heap(heap.begin(), heap.end(), min_first);
      }
    };
    reexamine(best);
    for (NodeId w : g.neighbors(best)) reexamine(w);
  }
  return wave;
}

/// Outcome of a repair.
struct RepairResult {
  std::vector<graph::NodeId> set;  ///< repaired set (failed nodes removed)
  std::int64_t promoted = 0;       ///< nodes newly added
  /// Nodes whose coverage checks ran (the 2-hop damage region) — the
  /// "work" a local distributed repair would perform.
  std::int64_t touched = 0;
  bool fully_satisfied = true;  ///< false only if damage made demands
                                ///< unsatisfiable (k_i > live closed nbhd)
};

/// Repairs `old_set` on graph `g` after `failed` nodes crashed. `demands`
/// are interpreted on the *live* subgraph (failed nodes neither need nor
/// provide coverage) under closed-neighborhood coverage. `old_set` may
/// contain failed nodes (they are dropped). Deterministic.
[[nodiscard]] RepairResult repair_after_failures(
    const graph::Graph& g, std::span<const graph::NodeId> old_set,
    std::span<const graph::NodeId> failed, const domination::Demands& demands);

}  // namespace ftc::algo
