#include "algo/rounding/rounding_process.h"

#include <algorithm>
#include <cassert>

#include "obs/plane.h"

namespace ftc::algo {

using graph::NodeId;
using sim::Word;

RoundingProcess::RoundingProcess(double x, std::int32_t demand)
    : x_(x), demand_(demand) {
  assert(demand >= 0);
}

void RoundingProcess::on_round(sim::Context& ctx) {
  if (step_ == 0) {
    const double p = std::min(1.0, x_ * rounding_log_d1(ctx.max_degree()));
    if (ctx.rng().bernoulli(p)) {
      in_set_ = true;
      by_coin_ = true;
    }
    if (obs::Recorder* rec = ctx.obs(); rec != nullptr) {
      rec->count(rec->builtin().rounding_trials);
      rec->event(obs::Category::kAlgo, obs::Severity::kDebug,
                 rec->builtin().n_rounding_trial, ctx.round(),
                 static_cast<std::int32_t>(ctx.self()),
                 by_coin_ ? 1 : 0);
    }
    ctx.broadcast({in_set_ ? Word{1} : Word{0}});
  } else if (step_ == 1) {
    // Coverage snapshot from the coin phase. Missing messages (crashed
    // neighbors) count as absent.
    std::int32_t coverage = in_set_ ? 1 : 0;
    for (const sim::Message& msg : ctx.inbox()) {
      if (msg.words.size() != 1) continue;  // wrong-shape frame (delayed)
      coverage += msg.words[0] == 1 ? 1 : 0;
    }
    std::int32_t shortfall = demand_ - coverage;
    if (shortfall > 0) {
      if (!in_set_) {
        in_set_ = true;  // request self first (no message needed)
        --shortfall;
      }
      // Inbox is sorted by sender id: ascending-id absent neighbors.
      for (const sim::Message& msg : ctx.inbox()) {
        if (shortfall <= 0) break;
        if (msg.words[0] == 0) {
          ctx.send(msg.from, {Word{1}});  // REQ
          --shortfall;
        }
      }
    }
  } else {
    if (!ctx.inbox().empty() && !in_set_) {
      in_set_ = true;  // someone requested us
    }
    halt();
  }
  ++step_;
}

}  // namespace ftc::algo
