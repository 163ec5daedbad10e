#include "algo/extensions/maintainer.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "algo/extensions/repair.h"
#include "obs/plane.h"

namespace ftc::algo {

using graph::Edge;
using graph::NodeId;

IncrementalMaintainer::IncrementalMaintainer(
    NodeId n, std::span<const NodeId> initial_set, MaintainerOptions options)
    : options_(options) {
  if (n < 0) {
    throw std::invalid_argument("IncrementalMaintainer: n must be >= 0");
  }
  if (options_.k < 1) {
    throw std::invalid_argument("IncrementalMaintainer: k must be >= 1");
  }
  member_.assign(static_cast<std::size_t>(n), 0);
  for (NodeId v : initial_set) {
    if (v < 0 || v >= n) {
      throw std::invalid_argument("IncrementalMaintainer: initial id " +
                                  std::to_string(v) + " outside [0, " +
                                  std::to_string(n) + ")");
    }
    auto& m = member_[static_cast<std::size_t>(v)];
    members_ += 1 - m;
    m = 1;
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

MaintainResult IncrementalMaintainer::apply_batch(
    const graph::MutableGraph& g, std::span<const std::uint8_t> active,
    std::span<const sim::AppliedMutation> batch) {
  const auto n = static_cast<std::size_t>(g.n());
  if (active.size() != n) {
    throw std::invalid_argument(
        "IncrementalMaintainer::apply_batch: active.size() != g.n()");
  }
  if (n < member_.size()) {
    throw std::invalid_argument(
        "IncrementalMaintainer::apply_batch: the graph has fewer nodes than "
        "the last batch's");
  }
  member_.resize(n, 0);
  seed_mark_.resize(n, 0);
  ball_.resize(n, 0);
  cover_.resize(n, 0);
  promoted_now_.resize(n, 0);
  seeds_.clear();
  changed_.clear();

  MaintainResult result;

  // Seeds: everything a mutation named plus every delta-edge endpoint. A
  // departed node's former neighbors are delta endpoints, so coverage lost
  // to the departure is rooted here.
  auto add_seed = [&](NodeId v) {
    if (v < 0 || static_cast<std::size_t>(v) >= n) return;
    auto& mark = seed_mark_[static_cast<std::size_t>(v)];
    if (!mark) {
      mark = 1;
      seeds_.push_back(v);
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
  std::sort(seeds_.begin(), seeds_.end());

  // Drop members that departed. Only seeds can have turned inactive: the
  // world deactivates nodes solely through leave mutations.
  for (NodeId s : seeds_) {
    const auto si = static_cast<std::size_t>(s);
    if (member_[si] && !active[si]) {
      member_[si] = 0;
      --members_;
      ++result.dropped;
      changed_.push_back(s);
    }
  }

  // ball1 = seeds + 1 hop (coverage can only have changed there);
  // ball2 = ball1 + 1 hop (where promotion candidates live). Both in the
  // post-mutation graph.
  result.ball2 = mark_two_hop_ball(g, seeds_, ball_, ball1_);
  std::sort(ball1_.begin(), ball1_.end());
  result.ball1 = static_cast<std::int64_t>(ball1_.size());

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
  for (NodeId v : ball1_) cover_[static_cast<std::size_t>(v)] = coverage_of(v);
  // Residual demand, cached-cover fast path. Outside ball1 the pre-batch
  // full-coverage invariant still holds, so the residual is 0 by
  // construction — that is what confines the wave.
  auto residual_of = [&](NodeId v) -> std::int32_t {
    const auto vi = static_cast<std::size_t>(v);
    if (ball_[vi] != 2 || !active[vi]) return 0;
    return std::max(0, eff_demand(v) - cover_[vi]);
  };
  // Adds `delta` to the cached cover of N[v] wherever it is exact.
  auto shift_cover = [&](NodeId v, std::int32_t delta) {
    auto shift = [&](NodeId u) {
      const auto ui = static_cast<std::size_t>(u);
      if (ball_[ui] >= 2) cover_[ui] += delta;
    };
    shift(v);
    for (NodeId w : g.neighbors(v)) shift(w);
  };

  // Promotion wave: the shared span-then-id core in repair.h, with the
  // cached cover_ of N[best] bumped on each promotion.
  if (options_.promote) {
    const PromotionWave wave = promotion_wave(
        g, ball1_, residual_of,
        [&](NodeId c) {
          const auto ci = static_cast<std::size_t>(c);
          return active[ci] && !member_[ci];
        },
        [&](NodeId best) {
          member_[static_cast<std::size_t>(best)] = 1;
          ++members_;
          promoted_now_[static_cast<std::size_t>(best)] = 1;
          changed_.push_back(best);
          shift_cover(best, 1);
        },
        worklist_);
    result.promoted = wave.promoted;
    result.fully_satisfied = wave.fully_satisfied;
  } else {
    // Mutant-harness mode: report the deficiency but leave it unrepaired.
    result.fully_satisfied =
        std::none_of(ball1_.begin(), ball1_.end(),
                     [&](NodeId v) { return residual_of(v) > 0; });
  }

  // Demotion wave: release members the batch made redundant (a join or a
  // move can over-cover a region). One ascending pass; a member may go if
  // every active node in its closed neighborhood stays at its effective
  // demand without it. Freshly-promoted nodes are exempt — promoting and
  // demoting the same node in one batch would thrash. N[v] of a ball1 node
  // lies in ball2; a ring node's cover is filled on first read (mark 3),
  // and every demotion decrements the exact entries, so each read is honest
  // coverage without rescanning N[w].
  if (options_.demote) {
    auto still_covered = [&](NodeId w) {
      const auto wi = static_cast<std::size_t>(w);
      if (!active[wi]) return true;
      if (ball_[wi] == 1) {
        cover_[wi] = coverage_of(w);
        ball_[wi] = 3;
      }
      return cover_[wi] - 1 >= eff_demand(w);
    };
    for (NodeId v : ball1_) {
      const auto vi = static_cast<std::size_t>(v);
      if (!member_[vi] || !active[vi] || promoted_now_[vi]) continue;
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
      --members_;
      shift_cover(v, -1);
      ++result.demoted;
      changed_.push_back(v);
    }
  }

  std::sort(changed_.begin(), changed_.end());
  changed_.erase(std::unique(changed_.begin(), changed_.end()), changed_.end());
  result.changed = changed_;

  // Return the scratch to all-zero, touching only what this batch marked.
  for (NodeId s : seeds_) seed_mark_[static_cast<std::size_t>(s)] = 0;
  for (NodeId c : changed_) promoted_now_[static_cast<std::size_t>(c)] = 0;
  auto clear = [&](NodeId u) {
    const auto ui = static_cast<std::size_t>(u);
    ball_[ui] = 0;
    cover_[ui] = 0;
  };
  for (NodeId v : ball1_) {
    clear(v);
    for (NodeId w : g.neighbors(v)) clear(w);
  }

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
