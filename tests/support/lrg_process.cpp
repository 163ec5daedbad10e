#include "support/lrg_process.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "algo/baseline/lrg.h"

namespace ftc::algo {

using graph::NodeId;
using sim::Word;

namespace {

std::int64_t round_up_pow2(std::int64_t x) {
  std::int64_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

}  // namespace

LrgProcess::LrgProcess(std::int32_t demand) : residual_(demand) {
  assert(demand >= 0);
}

void LrgProcess::on_round(sim::Context& ctx) {
  if (step_ == 0) {
    max_iterations_ = lrg_max_iterations(ctx.n(), ctx.max_degree());
  }
  const std::int64_t iteration = step_ / kLrgRoundsPerIteration;
  const std::int64_t phase = step_ % kLrgRoundsPerIteration;
  ++step_;

  switch (phase) {
    case 0: {  // absorb JOINs, broadcast deficiency
      std::int32_t joined_nearby =
          static_cast<std::int32_t>(ctx.inbox().size());
      if (joined_this_iteration_) ++joined_nearby;  // cover self once
      joined_this_iteration_ = false;
      while (joined_nearby-- > 0 && residual_ > 0) --residual_;
      if (iteration >= max_iterations_) {
        halt();
        return;
      }
      ctx.broadcast({residual_ > 0 ? Word{1} : Word{0}});
      break;
    }
    case 1: {  // spans
      if (selected_) {
        span_ = 0;  // a chosen node cannot join again
      } else {
        span_ = residual_ > 0 ? 1 : 0;
        for (const sim::Message& msg : ctx.inbox()) {
          if (msg.words.at(0) == 1) ++span_;
        }
      }
      rounded_ = span_ > 0 ? round_up_pow2(span_) : 0;
      ctx.broadcast({static_cast<Word>(rounded_)});
      break;
    }
    case 2: {  // hop-1 max; quiescence detection
      hop1_max_ = rounded_;
      bool all_zero = span_ == 0;
      for (const sim::Message& msg : ctx.inbox()) {
        hop1_max_ = std::max(hop1_max_, msg.words.at(0));
        if (msg.words.at(0) != 0) all_zero = false;
      }
      if (all_zero) {
        // No deficiency within two hops, now or ever again: this node will
        // only broadcast zeros, which receivers treat like silence.
        halt();
        return;
      }
      ctx.broadcast({static_cast<Word>(hop1_max_)});
      break;
    }
    case 3: {  // hop-2 max, candidacy
      std::int64_t hop2 = hop1_max_;
      for (const sim::Message& msg : ctx.inbox()) {
        hop2 = std::max(hop2, msg.words.at(0));
      }
      candidate_ = rounded_ > 0 && rounded_ >= hop2;
      ctx.broadcast({candidate_ ? Word{1} : Word{0}});
      break;
    }
    case 4: {  // supports (deficient nodes only); encoded as support+1
      own_support_ = 0;
      if (residual_ > 0) {
        own_support_ = candidate_ ? 1 : 0;
        for (const sim::Message& msg : ctx.inbox()) {
          if (msg.words.at(0) == 1) ++own_support_;
        }
        ctx.broadcast({static_cast<Word>(own_support_ + 1)});
      } else {
        ctx.broadcast({Word{0}});
      }
      break;
    }
    default: {  // 5: median + coin + JOIN
      if (candidate_) {
        std::vector<std::int64_t> supports;
        if (residual_ > 0) supports.push_back(own_support_);
        for (const sim::Message& msg : ctx.inbox()) {
          if (msg.words.at(0) > 0) supports.push_back(msg.words.at(0) - 1);
        }
        double median = 1.0;
        if (!supports.empty()) {
          std::sort(supports.begin(), supports.end());
          median = static_cast<double>(supports[supports.size() / 2]);
        }
        if (ctx.rng().bernoulli(1.0 / std::max(1.0, median))) {
          selected_ = true;
          joined_this_iteration_ = true;
          ctx.broadcast({Word{1}});  // JOIN
        }
      }
      break;
    }
  }
}

}  // namespace ftc::algo
