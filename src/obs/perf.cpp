#include "obs/perf.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <ostream>

namespace ftc::obs {

namespace {

constexpr std::string_view kPhaseNames[kPerfPhaseCount] = {
    "fault_apply",  "compute",       "stats_merge",  "obs_merge",
    "deliver_count", "deliver_prefix", "deliver_place", "finalize",
    "channel_decide", "barrier_wait", "claim_stall",  "lp_x_update",
    "lp_dual_color", "lp_degree",    "lp_z_pass"};

}  // namespace

std::string_view perf_phase_name(PerfPhase p) noexcept {
  const auto i = static_cast<std::size_t>(p);
  assert(i < kPerfPhaseCount);
  return kPhaseNames[i];
}

bool perf_phase_top_level(PerfPhase p) noexcept {
  switch (p) {
    case PerfPhase::kChannelDecide:
    case PerfPhase::kBarrierWait:
    case PerfPhase::kClaimStall:
      return false;
    default:
      return true;
  }
}

PerfPhase perf_shard_phase(int slot) noexcept {
  assert(slot >= 0 && slot < kPerfShardPhaseCount);
  constexpr PerfPhase kSlots[kPerfShardPhaseCount] = {
      PerfPhase::kCompute, PerfPhase::kDeliverCount, PerfPhase::kDeliverPlace,
      PerfPhase::kChannelDecide};
  return kSlots[slot];
}

int perf_shard_slot(PerfPhase p) noexcept {
  switch (p) {
    case PerfPhase::kCompute:
      return 0;
    case PerfPhase::kDeliverCount:
      return 1;
    case PerfPhase::kDeliverPlace:
      return 2;
    case PerfPhase::kChannelDecide:
      return 3;
    default:
      return -1;
  }
}

void PerfShardSample::add(PerfPhase phase, std::int64_t ns) noexcept {
  const int slot = perf_shard_slot(phase);
  assert(slot >= 0 && "phase has no per-shard resolution");
  phase_ns[slot] += ns;
}

std::int64_t PerfShardSample::busy_ns() const noexcept {
  return phase_ns[0] + phase_ns[1] + phase_ns[2];
}

std::int64_t PerfShardTotals::busy_ns() const noexcept {
  return phase_ns[0] + phase_ns[1] + phase_ns[2];
}

std::int64_t PerfRoundSample::attributed_ns() const noexcept {
  std::int64_t sum = 0;
  for (int p = 0; p < kPerfPhaseCount; ++p) {
    if (perf_phase_top_level(static_cast<PerfPhase>(p))) sum += phase_ns[p];
  }
  return sum;
}

PerfPlane::PerfPlane() { ring_.reserve(1024); }

std::int64_t PerfPlane::now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void PerfPlane::add(PerfPhase phase, std::int64_t ns) noexcept {
  cur_phase_ns_[static_cast<std::size_t>(phase)] += ns;
}

void PerfPlane::end_round(std::int64_t round, std::int64_t total_ns,
                          std::span<const PerfShardSample> shards) {
  PerfRoundSample sample;
  sample.round = round;
  sample.total_ns = total_ns;
  for (int p = 0; p < kPerfPhaseCount; ++p) {
    sample.phase_ns[p] = cur_phase_ns_[p];
    agg_phase_ns_[p] += cur_phase_ns_[p];
    cur_phase_ns_[p] = 0;
  }

  // Fold the shard samples into the run-wide per-shard totals. The strict
  // `>` hands a busy-time tie to the lower shard.
  sample.shards.assign(shards.begin(), shards.end());
  if (shard_totals_.size() < shards.size()) shard_totals_.resize(shards.size());
  std::int64_t busy_sum = 0;
  std::int64_t busy_max = -1;
  std::int64_t channel_ns = 0;
  int straggler = -1;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const PerfShardSample& in = shards[s];
    PerfShardTotals& tot = shard_totals_[s];
    for (int i = 0; i < kPerfShardPhaseCount; ++i) {
      tot.phase_ns[i] += in.phase_ns[i];
    }
    tot.nodes += in.nodes;
    tot.messages += in.messages;
    const std::int64_t busy = in.busy_ns();
    busy_sum += busy;
    channel_ns += in.phase_ns[perf_shard_slot(PerfPhase::kChannelDecide)];
    if (busy > busy_max) {
      busy_max = busy;
      straggler = static_cast<int>(s);
    }
  }
  // Channel decide has no owner-side lap (slots 0-2 do, and adding their
  // worker sums to the owner's dispatch wall time would double-count), so
  // surface the worker-staged total in the phase table. It is nested inside
  // deliver_place and therefore excluded from the coverage sum.
  const auto channel = static_cast<std::size_t>(PerfPhase::kChannelDecide);
  sample.phase_ns[channel] += channel_ns;
  agg_phase_ns_[channel] += channel_ns;
  if (busy_sum > 0 && !sample.shards.empty()) {
    const double mean = static_cast<double>(busy_sum) /
                        static_cast<double>(sample.shards.size());
    sample.imbalance = static_cast<double>(busy_max) / mean;
    sample.straggler = straggler;
    shard_totals_[static_cast<std::size_t>(straggler)].straggler_rounds += 1;
  }

  agg_total_ns_ += total_ns;
  imb_sum_ += sample.imbalance;
  imb_max_ = std::max(imb_max_, sample.imbalance);
  ++rounds_;

  if (ring_.size() < kRingCapacity) {
    ring_.push_back(std::move(sample));
    head_ = ring_.size() % kRingCapacity;
  } else {
    ring_[head_] = std::move(sample);
    head_ = (head_ + 1) % kRingCapacity;
  }
}

std::vector<PerfRoundSample> PerfPlane::recent() const {
  std::vector<PerfRoundSample> out;
  out.reserve(ring_.size());
  if (ring_.size() < kRingCapacity) {
    out = ring_;
    return out;
  }
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::int64_t PerfPlane::phase_total_ns(PerfPhase p) const noexcept {
  return agg_phase_ns_[static_cast<std::size_t>(p)];
}

double PerfPlane::attribution_coverage() const noexcept {
  if (agg_total_ns_ <= 0) return 0.0;
  std::int64_t attributed = 0;
  for (int p = 0; p < kPerfPhaseCount; ++p) {
    if (perf_phase_top_level(static_cast<PerfPhase>(p))) {
      attributed += agg_phase_ns_[p];
    }
  }
  return static_cast<double>(attributed) / static_cast<double>(agg_total_ns_);
}

double PerfPlane::mean_imbalance() const noexcept {
  return rounds_ > 0 ? imb_sum_ / static_cast<double>(rounds_) : 0.0;
}

namespace {

void write_phase_object(std::ostream& os, const std::int64_t (&ns)[kPerfPhaseCount]) {
  os << "{";
  for (int p = 0; p < kPerfPhaseCount; ++p) {
    if (p != 0) os << ",";
    os << "\"" << kPhaseNames[p] << "\":" << ns[p];
  }
  os << "}";
}

}  // namespace

void PerfPlane::export_jsonl(std::ostream& os) const {
  for (const PerfRoundSample& r : recent()) {
    os << "{\"type\":\"round\",\"round\":" << r.round
       << ",\"total_ns\":" << r.total_ns
       << ",\"attributed_ns\":" << r.attributed_ns()
       << ",\"imbalance\":" << r.imbalance
       << ",\"straggler\":" << r.straggler << ",\"phases\":";
    write_phase_object(os, r.phase_ns);
    os << ",\"shards\":[";
    for (std::size_t s = 0; s < r.shards.size(); ++s) {
      const PerfShardSample& sh = r.shards[s];
      if (s != 0) os << ",";
      os << "{\"shard\":" << s << ",\"compute_ns\":" << sh.phase_ns[0]
         << ",\"deliver_count_ns\":" << sh.phase_ns[1]
         << ",\"deliver_place_ns\":" << sh.phase_ns[2]
         << ",\"channel_decide_ns\":" << sh.phase_ns[3]
         << ",\"busy_ns\":" << sh.busy_ns() << ",\"nodes\":" << sh.nodes
         << ",\"messages\":" << sh.messages << "}";
    }
    os << "]}\n";
  }
  os << "{\"type\":\"summary\",\"rounds\":" << rounds_
     << ",\"retained\":" << ring_.size()
     << ",\"shards\":" << shard_totals_.size()
     << ",\"total_ns\":" << agg_total_ns_
     << ",\"coverage\":" << attribution_coverage()
     << ",\"imbalance_mean\":" << mean_imbalance()
     << ",\"imbalance_max\":" << imb_max_ << ",\"phases\":";
  write_phase_object(os, agg_phase_ns_);
  os << ",\"shard_totals\":[";
  for (std::size_t s = 0; s < shard_totals_.size(); ++s) {
    const PerfShardTotals& t = shard_totals_[s];
    if (s != 0) os << ",";
    os << "{\"shard\":" << s << ",\"compute_ns\":" << t.phase_ns[0]
       << ",\"deliver_count_ns\":" << t.phase_ns[1]
       << ",\"deliver_place_ns\":" << t.phase_ns[2]
       << ",\"channel_decide_ns\":" << t.phase_ns[3]
       << ",\"busy_ns\":" << t.busy_ns() << ",\"nodes\":" << t.nodes
       << ",\"messages\":" << t.messages
       << ",\"straggler_rounds\":" << t.straggler_rounds << "}";
  }
  os << "]}\n";
}

}  // namespace ftc::obs
