#include "algo/udg/udg_kmds_process.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

#include "algo/udg/udg_kmds.h"
#include "obs/plane.h"

namespace ftc::algo {

using graph::NodeId;
using sim::Word;

UdgKmdsProcess::UdgKmdsProcess(std::int32_t k)
    : UdgKmdsProcess(UdgOptions{.k = k}) {}

UdgKmdsProcess::UdgKmdsProcess(const UdgOptions& options)
    : options_(options) {
  assert(options.k >= 1);
  known_leaders_.reserve(static_cast<std::size_t>(options.k));
}

void UdgKmdsProcess::ensure_initialized(sim::Context& ctx) {
  if (initialized_) return;
  initialized_ = true;
  assert(ctx.has_distances() &&
         "Algorithm 3 requires a UDG network (distance sensing)");
  const UdgSchedule schedule = udg_schedule(ctx.n(), options_);
  rounds_part1_ = schedule.part1_rounds;
  id_max_ = schedule.id_max;
  theta_ = schedule.theta1;
  // Positions are fixed, so one sensing pass bounds every later probe: no
  // neighbour is within θ while θ < nearest_.
  nearest_ = std::numeric_limits<double>::infinity();
  for (NodeId w : ctx.neighbors()) {
    nearest_ = std::min(nearest_, ctx.distance_to(w));
  }
}

void UdgKmdsProcess::part1_even(sim::Context& ctx, std::int64_t part1_round) {
  if (part1_round > 0) {
    // Election messages of the previous paper round decide survival.
    if (active_) {
      const bool got_message = !ctx.inbox().empty();
      if (!got_message && !elected_) {
        active_ = false;  // line 11: a(v) := false; stop
      }
    }
    theta_ *= 2.0;  // line 13 of the previous paper round
    if (active_) {
      if (obs::Recorder* rec = ctx.obs(); rec != nullptr) {
        rec->count(rec->builtin().probe_doublings);
        rec->event(obs::Category::kAlgo, obs::Severity::kDebug,
                   rec->builtin().n_probe_doubling, ctx.round(),
                   static_cast<std::int32_t>(ctx.self()), part1_round);
      }
    }
  }
  elected_ = false;
  if (!active_) return;
  my_id_ = ctx.rng().uniform_u64(1, id_max_);
  if (theta_ < nearest_) return;  // the loop below would send nothing
  for (NodeId w : ctx.neighbors()) {
    if (ctx.distance_to(w) <= theta_) {
      ctx.send(w, {Word{1}, static_cast<Word>(my_id_)});
    }
  }
}

void UdgKmdsProcess::part1_odd(sim::Context& ctx) {
  if (!active_) return;
  // Elect the highest-id active node within θ, possibly self (ties toward
  // the larger node id — identical to the mirror).
  NodeId best = ctx.self();
  auto best_id = my_id_;
  for (const sim::Message& msg : ctx.inbox()) {
    if (msg.words.size() != 2) continue;  // wrong-shape frame (delayed)
    if (msg.words[0] != 1) continue;  // inactive sender (defensive)
    if (ctx.distance_to(msg.from) > theta_) continue;  // defensive filter
    const auto wid = static_cast<std::uint64_t>(msg.words[1]);
    if (wid > best_id || (wid == best_id && msg.from > best)) {
      best = msg.from;
      best_id = wid;
    }
  }
  if (best == ctx.self()) {
    elected_ = true;  // self-election needs no message
  } else {
    ctx.send(best, {Word{1}});  // M
  }
}

void UdgKmdsProcess::part2(sim::Context& ctx, std::int64_t phase) {
  switch (phase) {
    case 0: {  // B0: absorb promotions, announce leadership.
      for (const sim::Message& msg : ctx.inbox()) {
        (void)msg;
        leader_ = true;  // any PROMOTE suffices
      }
      ctx.broadcast({leader_ ? Word{1} : Word{0}});
      break;
    }
    case 1: {  // B1: coverage + deficiency.
      // Only coverage < k is ever asked, and leadership never reverts, so
      // k known leaders settle it for good.
      for (const sim::Message& msg : ctx.inbox()) {
        if (std::cmp_greater_equal(known_leaders_.size(), options_.k)) break;
        if (msg.words.size() != 1) continue;
        if (msg.words[0] == 1) {
          const auto it = std::lower_bound(known_leaders_.begin(),
                                           known_leaders_.end(), msg.from);
          if (it == known_leaders_.end() || *it != msg.from) {
            known_leaders_.insert(it, msg.from);
          }
        }
      }
      const auto coverage = static_cast<std::int32_t>(known_leaders_.size()) +
                            (leader_ ? 1 : 0);
      deficient_ = !leader_ && coverage < options_.k;
      ctx.broadcast({deficient_ ? Word{1} : Word{0}});
      break;
    }
    case 2: {  // B2: leaders promote; everyone checks for quiescence.
      bool neighborhood_deficient = deficient_;
      if (leader_) {
        std::int32_t budget = options_.k;
        for (const sim::Message& msg : ctx.inbox()) {  // ascending sender id
          if (msg.words.size() != 1) continue;
          if (msg.words[0] != 1) continue;
          neighborhood_deficient = true;
          if (budget > 0) {
            ctx.send(msg.from, {Word{1}});  // PROMOTE
            --budget;
          }
        }
      } else {
        for (const sim::Message& msg : ctx.inbox()) {
          if (msg.words[0] == 1) neighborhood_deficient = true;
        }
      }
      if (!neighborhood_deficient) {
        halt();  // nothing in this closed neighborhood can change anymore
      }
      break;
    }
    default:
      assert(false);
  }
}

void UdgKmdsProcess::on_round(sim::Context& ctx) {
  ensure_initialized(ctx);
  if (step_ < 2 * rounds_part1_) {
    if (step_ % 2 == 0) {
      part1_even(ctx, step_ / 2);
    } else {
      part1_odd(ctx);
    }
  } else {
    if (step_ == 2 * rounds_part1_) {
      // Resolve the final paper round's elections; survivors are leaders
      // (line 15).
      if (active_) {
        const bool got_message = !ctx.inbox().empty();
        if (!got_message && !elected_) active_ = false;
      }
      part1_leader_ = active_;
      leader_ = active_;
    }
    const std::int64_t phase = (step_ - 2 * rounds_part1_) % 3;
    part2(ctx, phase);
  }
  ++step_;
}

std::int64_t udg_round_budget(NodeId n, const UdgOptions& options) {
  return 2 * udg_schedule(n, options).part1_rounds +
         3 * (static_cast<std::int64_t>(n) + 3);
}

}  // namespace ftc::algo
