#include "algo/extensions/repair_process.h"

#include <algorithm>
#include <cassert>

#include "obs/plane.h"

namespace ftc::algo {

using graph::NodeId;
using sim::Message;
using sim::Word;

namespace {

/// Phase tag carried as word 0 of every repair message. Messages sent in
/// phase P arrive in phase P + 1; anything else is channel reordering or
/// duplication and is dropped by the reader.
constexpr Word prev_phase(std::int64_t round) {
  return static_cast<Word>((round + kRepairRoundsPerWave - 1) %
                           kRepairRoundsPerWave);
}

}  // namespace

RepairProcess::RepairProcess(std::int32_t demand, bool initially_member,
                             sim::HeartbeatMonitor::Options detection)
    : monitor_(detection),
      demand_(demand),
      member_(initially_member) {}

std::size_t RepairProcess::index_of(sim::Context& ctx, NodeId w) const {
  const auto nbrs = ctx.neighbors();
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), w);
  assert(it != nbrs.end() && *it == w);
  return static_cast<std::size_t>(it - nbrs.begin());
}

void RepairProcess::on_round(sim::Context& ctx) {
  if (nbr_membership_.empty() && ctx.degree() > 0) {
    const auto deg = static_cast<std::size_t>(ctx.degree());
    nbr_membership_.assign(deg, kUnknown);
    nbr_deficient_.assign(deg, 0);
    nbr_span_.assign(deg, 0);
  }
  monitor_.observe(ctx);

  // Phases are keyed on the globally known round number, so every node —
  // including one that just rejoined mid-execution — agrees on the current
  // phase and therefore on how to read this round's single-word messages.
  switch (ctx.round() % kRepairRoundsPerWave) {
    case 0: phase_member(ctx); break;
    case 1: phase_deficit(ctx); break;
    case 2: phase_span(ctx); break;
    default: phase_vote(ctx); break;
  }
}

void RepairProcess::phase_member(sim::Context& ctx) {
  bool elected = self_elected_;
  self_elected_ = false;
  for (const Message& msg : ctx.inbox()) {
    if (msg.words.at(0) != prev_phase(ctx.round())) continue;  // stale
    if (msg.words.at(1) == static_cast<Word>(ctx.self())) elected = true;
  }
  if (elected && !member_) {
    member_ = true;
    ++joins_;
    if (obs::Recorder* rec = ctx.obs(); rec != nullptr) {
      rec->count(rec->builtin().promotions);
      rec->event(obs::Category::kRepair, obs::Severity::kInfo,
                 rec->builtin().n_promote, ctx.round(),
                 static_cast<std::int32_t>(ctx.self()), demand_);
    }
  }
  ctx.broadcast({static_cast<Word>(ctx.round() % kRepairRoundsPerWave),
                 member_ ? Word{1} : Word{0}});
}

void RepairProcess::phase_deficit(sim::Context& ctx) {
  for (const Message& msg : ctx.inbox()) {
    if (msg.words.at(0) != prev_phase(ctx.round())) continue;  // stale
    nbr_membership_[index_of(ctx, msg.from)] =
        msg.words.at(1) != 0 ? kMember : kNonMember;
  }

  std::int32_t coverage = member_ ? 1 : 0;  // closed neighborhood: self
  bool unknown_live_neighbor = false;
  const auto nbrs = ctx.neighbors();
  for (std::size_t j = 0; j < nbrs.size(); ++j) {
    if (monitor_.suspects(nbrs[j])) continue;
    if (nbr_membership_[j] == kUnknown) {
      unknown_live_neighbor = true;
    } else if (nbr_membership_[j] == kMember) {
      ++coverage;
    }
  }
  // Never act on a neighborhood not fully heard from (fresh boot or churn
  // rejoin): one wave of patience instead of a spurious promotion.
  residual_ = unknown_live_neighbor ? 0 : std::max(0, demand_ - coverage);
  if (residual_ > 0) {
    if (obs::Recorder* rec = ctx.obs(); rec != nullptr) {
      rec->record(rec->builtin().coverage_deficit,
                  static_cast<double>(residual_));
    }
  }
  deficient_ = residual_ > 0;
  ctx.broadcast({static_cast<Word>(ctx.round() % kRepairRoundsPerWave),
                 deficient_ ? Word{1} : Word{0}});
}

void RepairProcess::phase_span(sim::Context& ctx) {
  for (const Message& msg : ctx.inbox()) {
    if (msg.words.at(0) != prev_phase(ctx.round())) continue;  // stale
    nbr_deficient_[index_of(ctx, msg.from)] = msg.words.at(1) != 0 ? 1 : 0;
  }

  own_span_ = 0;
  if (!member_) {
    if (deficient_) ++own_span_;
    const auto nbrs = ctx.neighbors();
    for (std::size_t j = 0; j < nbrs.size(); ++j) {
      if (!monitor_.suspects(nbrs[j]) && nbr_deficient_[j] != 0) ++own_span_;
    }
  }
  ctx.broadcast({static_cast<Word>(ctx.round() % kRepairRoundsPerWave),
                 static_cast<Word>(own_span_)});
}

void RepairProcess::phase_vote(sim::Context& ctx) {
  for (const Message& msg : ctx.inbox()) {
    if (msg.words.at(0) != prev_phase(ctx.round())) continue;  // stale
    nbr_span_[index_of(ctx, msg.from)] = msg.words.at(1);
  }

  Word vote = -1;
  if (deficient_) {
    // Scan the closed neighborhood (self included, at its sorted position)
    // in ascending id order with strict improvement only: ties resolve to
    // the lowest id. All voters in a symmetric damage region therefore name
    // the same candidate, mirroring the centralized oracle's pick instead
    // of electing one replacement per voter.
    NodeId best = -1;
    std::int64_t best_span = 0;  // candidates need span > 0
    bool self_considered = false;
    auto consider_self = [&] {
      if (self_considered) return;
      self_considered = true;
      if (!member_ && own_span_ > best_span) {
        best = ctx.self();
        best_span = own_span_;
      }
    };
    const auto nbrs = ctx.neighbors();
    for (std::size_t j = 0; j < nbrs.size(); ++j) {
      if (nbrs[j] > ctx.self()) consider_self();
      if (monitor_.suspects(nbrs[j])) continue;
      // A positive span implies the sender was a non-member this wave.
      if (nbr_span_[j] > best_span) {
        best = nbrs[j];
        best_span = nbr_span_[j];
      }
    }
    consider_self();
    unsatisfied_ = best == -1;
    if (best == ctx.self()) self_elected_ = true;
    vote = static_cast<Word>(best);
  } else {
    unsatisfied_ = false;
  }
  ctx.broadcast({static_cast<Word>(ctx.round() % kRepairRoundsPerWave), vote});
}

}  // namespace ftc::algo
