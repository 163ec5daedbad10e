#include "algo/lp/lp_kmds_process.h"

#include "algo/lp/lp_kmds.h"

#include <algorithm>
#include <cassert>

#include "obs/plane.h"
#include "sim/message.h"

namespace ftc::algo {

using graph::NodeId;
using sim::Word;

LpKmdsProcess::LpKmdsProcess(std::int32_t demand, int t,
                             DegreeKnowledge degree_knowledge)
    : demand_(demand), t_(t), degree_knowledge_(degree_knowledge) {
  assert(t >= 1);
  assert(demand >= 0);
}

void LpKmdsProcess::set_outer_index(int p) {
  if (p == outer_p_) return;
  outer_p_ = p;
  threshold_ = lp_power(d1_, t_, p);
  inv_dp_ = lp_power(d1_, t_, -p);
}

void LpKmdsProcess::ensure_initialized(sim::Context& ctx) {
  if (initialized_) return;
  initialized_ = true;
  // In kTwoHop mode d1_ is learned in the warm-up instead.
  d1_ = static_cast<double>(ctx.max_degree()) + 1.0;
  dyn_deg_ = ctx.degree() + 1;
  ab_.assign(static_cast<std::size_t>(ctx.degree()) + 1, AlphaBeta{});
}

void LpKmdsProcess::update_dynamic_degree(sim::Context& ctx) {
  // Inbox holds color messages [white?1:0]. Crashed neighbors are absent
  // and counted as gray (they can no longer demand coverage). An unreliable
  // channel can delay a frame from another phase into this round; frames of
  // the wrong shape are ignored rather than misread.
  std::int32_t deg = white_ ? 1 : 0;
  for (const sim::Message& msg : ctx.inbox()) {
    if (msg.words.size() != 1) continue;
    deg += msg.words[0] == 1 ? 1 : 0;
  }
  dyn_deg_ = deg;
}

void LpKmdsProcess::do_x_update_and_send(sim::Context& ctx) {
  const std::int64_t m = step_ / 2;  // inner-iteration index
  const int p = t_ - 1 - static_cast<int>(m / t_);
  const int q = t_ - 1 - static_cast<int>(m % t_);
  set_outer_index(p);

  x_plus_ = 0.0;
  if (x_ < 1.0 && static_cast<double>(dyn_deg_) >= threshold_) {
    const double increment = lp_power(d1_, t_, -q);
    x_plus_ = std::min(increment, 1.0 - x_);
    x_ += x_plus_;
  }
  if (obs::Recorder* rec = ctx.obs(); rec != nullptr) {
    rec->count(rec->builtin().lp_iterations);
    rec->event(obs::Category::kAlgo, obs::Severity::kDebug,
               rec->builtin().n_lp_iteration, ctx.round(),
               static_cast<std::int32_t>(ctx.self()), m,
               x_plus_ > 0.0 ? 1 : 0);
  }
  ctx.broadcast({sim::encode_fixed(x_), sim::encode_fixed(x_plus_),
                 static_cast<Word>(dyn_deg_)});
}

void LpKmdsProcess::do_cover_update_and_send(sim::Context& ctx) {
  const std::int64_t m = (step_ - 1) / 2;
  set_outer_index(t_ - 1 - static_cast<int>(m / t_));
  const double inv_dp = inv_dp_;

  if (white_) {
    // Inbox is sorted by sender id, matching the mirror's neighbor order.
    // Wrong-shape frames (phase traffic delayed here by a reordering
    // channel) are skipped, never decoded.
    double c_plus = x_plus_;  // own increase, exact
    for (const sim::Message& msg : ctx.inbox()) {
      if (msg.words.size() != 3) continue;
      c_plus += sim::decode_fixed(msg.words[1]);
    }
    const double k_i = static_cast<double>(demand_);
    const double lambda =
        c_plus > 0.0 ? std::min(1.0, (k_i - c_) / c_plus) : 1.0;
    c_ += c_plus;
    ab_[0].alpha += lambda * x_plus_;
    ab_[0].beta += lambda * x_plus_ * inv_dp;
    // One forward walk of the sorted neighbour row finds each sender's slot
    // (slot k + 1 for neighbour k); a sender repeated by a duplicating
    // channel reuses its slot.
    const auto nbrs = ctx.neighbors();
    std::size_t k = 0;
    for (const sim::Message& msg : ctx.inbox()) {
      if (msg.words.size() != 3) continue;
      while (nbrs[k] < msg.from) ++k;
      assert(k < nbrs.size() && nbrs[k] == msg.from);
      const double xj = sim::decode_fixed(msg.words[1]);
      ab_[k + 1].alpha += lambda * xj;
      ab_[k + 1].beta += lambda * xj * inv_dp;
    }
    if (c_ + kCoverageEps >= k_i) {
      white_ = false;
      y_ = inv_dp;
    }
  }
  ctx.broadcast({white_ ? Word{1} : Word{0}});
}

void LpKmdsProcess::send_z_shares(sim::Context& ctx) {
  const auto nbrs = ctx.neighbors();
  for (std::size_t k = 0; k < nbrs.size(); ++k) {
    const double share = ab_[k + 1].alpha * y_ - ab_[k + 1].beta;
    ctx.send(nbrs[k], {sim::encode_fixed(share)});
  }
}

void LpKmdsProcess::finish_z(sim::Context& ctx) {
  double z = ab_[0].alpha * y_ - ab_[0].beta;  // own share (j = i), exact
  for (const sim::Message& msg : ctx.inbox()) {
    if (msg.words.size() != 1) continue;
    z += sim::decode_fixed(msg.words[0]);
  }
  z_ = z;
  halt();
}

void LpKmdsProcess::on_round(sim::Context& ctx) {
  ensure_initialized(ctx);

  // Warm-up (kTwoHop only): two max-degree relay rounds, after which d1_
  // is Δ_v + 1 for the closed 2-hop neighborhood. step_ stays at 0 for the
  // main schedule below.
  if (degree_knowledge_ == DegreeKnowledge::kTwoHop && warmup_rounds_ < 2) {
    if (warmup_rounds_ == 0) {
      warmup_hop1_ = ctx.degree();
      ctx.broadcast({static_cast<sim::Word>(ctx.degree())});
    } else {
      for (const sim::Message& msg : ctx.inbox()) {
        if (msg.words.size() != 1) continue;
        warmup_hop1_ = std::max<std::int64_t>(warmup_hop1_, msg.words[0]);
      }
      ctx.broadcast({static_cast<sim::Word>(warmup_hop1_)});
    }
    ++warmup_rounds_;
    return;
  }
  if (degree_knowledge_ == DegreeKnowledge::kTwoHop && warmup_rounds_ == 2) {
    std::int64_t two_hop = warmup_hop1_;
    for (const sim::Message& msg : ctx.inbox()) {
      if (msg.words.size() != 1) continue;
      two_hop = std::max<std::int64_t>(two_hop, msg.words[0]);
    }
    d1_ = static_cast<double>(two_hop) + 1.0;
    ++warmup_rounds_;  // fall through into main round 0 this same round
  }

  const std::int64_t iterations = static_cast<std::int64_t>(t_) * t_;
  if (step_ < 2 * iterations) {
    if (step_ % 2 == 0) {
      if (step_ > 0) update_dynamic_degree(ctx);
      do_x_update_and_send(ctx);
    } else {
      do_cover_update_and_send(ctx);
    }
  } else if (step_ == 2 * iterations) {
    update_dynamic_degree(ctx);  // final color exchange (audit only)
    send_z_shares(ctx);
  } else {
    finish_z(ctx);
  }
  ++step_;
}

}  // namespace ftc::algo
