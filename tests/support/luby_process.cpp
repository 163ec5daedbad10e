#include "support/luby_process.h"

#include <cassert>

#include "algo/baseline/luby.h"

namespace ftc::algo {

using graph::NodeId;
using sim::Word;

LubyMisProcess::LubyMisProcess(std::int32_t k) : k_(k) { assert(k >= 1); }

void LubyMisProcess::begin_phase() {
  status_ = selected_ ? Status::kOut : Status::kUndecided;
}

void LubyMisProcess::on_round(sim::Context& ctx) {
  if (step_ == 0) {
    budget_ = luby_phase_rounds(ctx.n());
    begin_phase();
  }

  const std::int64_t phase_span = 2 * budget_;
  const std::int64_t local = step_ - static_cast<std::int64_t>(phase_) * phase_span;

  if (local % 2 == 0) {
    // ---- A: absorb JOINs, maybe finalize a phase, then draw & send. ----
    if (status_ == Status::kUndecided && !ctx.inbox().empty()) {
      status_ = Status::kOut;  // a neighbor joined last paper round
    }
    if (local == phase_span) {
      // Phase boundary (this A belongs to the next phase): finalize.
      if (status_ == Status::kUndecided) {
        status_ = Status::kJoined;
        selected_ = true;
        force_joined_ = true;
      }
      ++phase_;
      if (phase_ >= k_) {
        halt();
        return;
      }
      begin_phase();
    }
    if (status_ == Status::kUndecided) {
      my_value_ = ctx.rng()() >> 1;
      ctx.broadcast({static_cast<Word>(my_value_)});
    }
  } else {
    // ---- B: decide membership from the received values. ----
    if (status_ == Status::kUndecided) {
      bool is_min = true;
      for (const sim::Message& msg : ctx.inbox()) {
        if (msg.words.size() != 1) continue;  // wrong-shape frame (delayed)
        const auto wv = static_cast<std::uint64_t>(msg.words[0]);
        if (wv < my_value_ || (wv == my_value_ && msg.from < ctx.self())) {
          is_min = false;
          break;
        }
      }
      if (is_min) {
        status_ = Status::kJoined;
        selected_ = true;
        ctx.broadcast({Word{1}});  // JOIN
      }
    }
  }
  ++step_;
}

}  // namespace ftc::algo
