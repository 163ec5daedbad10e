#include "algo/extensions/maintainer.h"

#include <algorithm>
#include <cassert>

#include "algo/extensions/repair.h"
#include "obs/plane.h"

namespace ftc::algo {

using graph::Edge;
using graph::NodeId;

IncrementalMaintainer::IncrementalMaintainer(
    NodeId n, std::span<const NodeId> initial_set, MaintainerOptions options)
    : options_(options), member_(static_cast<std::size_t>(n), 0) {
  assert(n >= 0 && options_.k >= 1);
  for (NodeId v : initial_set) {
    assert(v >= 0 && v < n);
    member_[static_cast<std::size_t>(v)] = 1;
  }
}

void IncrementalMaintainer::bind_plane(obs::Plane* plane) {
  plane_ = plane;
  if (plane_ == nullptr) return;
  auto& reg = plane_->metrics();
  batches_id_ = reg.counter("dyn.batches");
  mutations_id_ = reg.counter("dyn.mutations");
  promotions_id_ = reg.counter("dyn.promotions");
  demotions_id_ = reg.counter("dyn.demotions");
  dropped_id_ = reg.counter("dyn.dropped");
  members_id_ = reg.gauge("dyn.members");
  ball_hist_id_ = reg.histogram("dyn.ball_nodes", obs::pow2_bounds(0, 20));
  changed_hist_id_ =
      reg.histogram("dyn.changed_nodes", obs::pow2_bounds(0, 16));
}

std::vector<NodeId> IncrementalMaintainer::member_set() const {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < member_.size(); ++i) {
    if (member_[i]) out.push_back(static_cast<NodeId>(i));
  }
  return out;
}

std::int64_t IncrementalMaintainer::members() const noexcept {
  std::int64_t count = 0;
  for (std::uint8_t m : member_) count += m;
  return count;
}

MaintainResult IncrementalMaintainer::apply_batch(
    const graph::MutableGraph& g, std::span<const std::uint8_t> active,
    std::span<const sim::AppliedMutation> batch) {
  const auto n = static_cast<std::size_t>(g.n());
  assert(active.size() == n);
  assert(member_.size() <= n && "topologies only grow");
  member_.resize(n, 0);
  seed_mark_.assign(n, 0);
  ball_.assign(n, 0);
  cover_.assign(n, 0);
  promoted_now_.assign(n, 0);

  MaintainResult result;
  std::vector<NodeId> changed;

  // Seeds: everything a mutation named plus every delta-edge endpoint. A
  // departed node's former neighbors are delta endpoints, so coverage lost
  // to the departure is rooted here.
  std::vector<NodeId> seeds;
  auto add_seed = [&](NodeId v) {
    if (v < 0 || static_cast<std::size_t>(v) >= n) return;
    auto& mark = seed_mark_[static_cast<std::size_t>(v)];
    if (!mark) {
      mark = 1;
      seeds.push_back(v);
    }
  };
  for (const sim::AppliedMutation& am : batch) {
    add_seed(am.m.node);
    add_seed(am.m.peer);
    for (const Edge& e : am.delta.added) {
      add_seed(e.u);
      add_seed(e.v);
    }
    for (const Edge& e : am.delta.removed) {
      add_seed(e.u);
      add_seed(e.v);
    }
  }
  std::sort(seeds.begin(), seeds.end());

  // Drop members that departed. Only seeds can have turned inactive: the
  // world deactivates nodes solely through leave mutations.
  for (NodeId s : seeds) {
    const auto si = static_cast<std::size_t>(s);
    if (member_[si] && !active[si]) {
      member_[si] = 0;
      ++result.dropped;
      changed.push_back(s);
    }
  }

  // ball1 = seeds + 1 hop (coverage can only have changed there);
  // ball2 = ball1 + 1 hop (where promotion candidates live). Both in the
  // post-mutation graph.
  std::vector<NodeId> ball1;
  result.ball2 = mark_two_hop_ball(g, seeds, ball_, ball1);
  std::sort(ball1.begin(), ball1.end());
  result.ball1 = static_cast<std::int64_t>(ball1.size());

  // Effective demand: the clamp_demands convention, recomputed against the
  // current degree (a move can change what is satisfiable).
  auto eff_demand = [&](NodeId v) -> std::int32_t {
    if (!active[static_cast<std::size_t>(v)]) return 0;
    return std::min(options_.k, g.degree(v) + 1);
  };
  // Honest closed-neighborhood coverage (O(deg) scan).
  auto coverage_of = [&](NodeId v) -> std::int32_t {
    std::int32_t c = member_[static_cast<std::size_t>(v)] ? 1 : 0;
    for (NodeId w : g.neighbors(v)) c += member_[static_cast<std::size_t>(w)];
    return c;
  };
  for (NodeId v : ball1) cover_[static_cast<std::size_t>(v)] = coverage_of(v);
  // Residual demand, cached-cover fast path. Outside ball1 the pre-batch
  // full-coverage invariant still holds, so the residual is 0 by
  // construction — that is what confines the wave.
  auto residual_of = [&](NodeId v) -> std::int32_t {
    const auto vi = static_cast<std::size_t>(v);
    if (ball_[vi] != 2 || !active[vi]) return 0;
    return std::max(0, eff_demand(v) - cover_[vi]);
  };

  // Promotion wave: the shared span-then-id core in repair.h, with the
  // cached cover_ of N[best] bumped on each promotion.
  if (options_.promote) {
    const PromotionWave wave = promotion_wave(
        g, ball1, residual_of,
        [&](NodeId c) {
          const auto ci = static_cast<std::size_t>(c);
          return active[ci] && !member_[ci];
        },
        [&](NodeId best) {
          member_[static_cast<std::size_t>(best)] = 1;
          promoted_now_[static_cast<std::size_t>(best)] = 1;
          changed.push_back(best);
          auto bump = [&](NodeId u) {
            const auto ui = static_cast<std::size_t>(u);
            if (ball_[ui] == 2) ++cover_[ui];
          };
          bump(best);
          for (NodeId w : g.neighbors(best)) bump(w);
        });
    result.promoted = wave.promoted;
    result.fully_satisfied = wave.fully_satisfied;
  } else {
    // Mutant-harness mode: report the deficiency but leave it unrepaired.
    result.fully_satisfied =
        std::none_of(ball1.begin(), ball1.end(),
                     [&](NodeId v) { return residual_of(v) > 0; });
  }

  // Demotion wave: release members the batch made redundant (a join or a
  // move can over-cover a region). One ascending pass; a member may go if
  // every active node in its closed neighborhood stays at its effective
  // demand without it. Freshly-promoted nodes are exempt — promoting and
  // demoting the same node in one batch would thrash.
  if (options_.demote) {
    for (NodeId v : ball1) {
      const auto vi = static_cast<std::size_t>(v);
      if (!member_[vi] || !active[vi] || promoted_now_[vi]) continue;
      auto still_covered = [&](NodeId w) {
        if (!active[static_cast<std::size_t>(w)]) return true;
        return coverage_of(w) - 1 >= eff_demand(w);
      };
      bool removable = still_covered(v);
      if (removable) {
        for (NodeId w : g.neighbors(v)) {
          if (!still_covered(w)) {
            removable = false;
            break;
          }
        }
      }
      if (!removable) continue;
      member_[vi] = 0;
      ++result.demoted;
      changed.push_back(v);
    }
  }

  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
  result.changed = std::move(changed);

  ++batches_;
  total_promoted_ += result.promoted;
  total_demoted_ += result.demoted;
  publish(result, batch.size());
  return result;
}

void IncrementalMaintainer::publish(const MaintainResult& result,
                                    std::size_t mutations) {
  if (plane_ == nullptr) return;
  auto& reg = plane_->metrics();
  reg.add(batches_id_, 1);
  reg.add(mutations_id_, static_cast<std::int64_t>(mutations));
  reg.add(promotions_id_, result.promoted);
  reg.add(demotions_id_, result.demoted);
  reg.add(dropped_id_, result.dropped);
  reg.set(members_id_, members());
  reg.record(ball_hist_id_, static_cast<double>(result.ball2));
  reg.record(changed_hist_id_, static_cast<double>(result.changed.size()));
}

}  // namespace ftc::algo
