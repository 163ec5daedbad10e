#include "sim/channel.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/rng.h"

namespace ftc::sim {

using graph::NodeId;

namespace {

// Salts separating the independent decision streams per (link, round).
constexpr std::uint64_t kSaltLoss = 0x01;
constexpr std::uint64_t kSaltReorder = 0x02;
constexpr std::uint64_t kSaltDelay = 0x03;
constexpr std::uint64_t kSaltDup = 0x04;
constexpr std::uint64_t kSaltDupDelay = 0x05;
constexpr std::uint64_t kSaltBurst = 0x06;
constexpr std::uint64_t kSaltAsymmetry = 0x07;

constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

/// Rejects NaN and out-of-range probabilities. Drop probabilities must stay
/// strictly below 1 (a link that loses everything forever deadlocks every
/// retransmission scheme), so those pass allow_one = false.
void check_probability(const char* name, double p, bool allow_one) {
  const bool bad =
      std::isnan(p) || p < 0.0 || (allow_one ? p > 1.0 : p >= 1.0);
  if (bad) {
    throw std::invalid_argument(std::string("ChannelOptions: ") + name +
                                " must be in [0, " +
                                (allow_one ? "1]" : "1)") + ", got " +
                                std::to_string(p));
  }
}

std::uint64_t pack_link(NodeId from, NodeId to) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(to));
}

}  // namespace

void ChannelOptions::validate() const {
  check_probability("loss", loss, false);
  check_probability("asymmetry", asymmetry, true);
  check_probability("duplicate", duplicate, true);
  check_probability("reorder", reorder, true);
  check_probability("burst_loss", burst_loss, false);
  check_probability("p_enter_burst", p_enter_burst, true);
  check_probability("p_exit_burst", p_exit_burst, true);
  if (p_enter_burst > 0.0 && burst_loss > 0.0 && p_exit_burst <= 0.0) {
    throw std::invalid_argument(
        "ChannelOptions: p_exit_burst must be > 0 when bursts are enabled "
        "(a burst must be able to end)");
  }
  if ((reorder > 0.0 || duplicate > 0.0) && max_reorder_delay < 1) {
    throw std::invalid_argument(
        "ChannelOptions: max_reorder_delay must be >= 1 when reordering or "
        "duplication is enabled, got " + std::to_string(max_reorder_delay));
  }
}

void Channel::set_options(const ChannelOptions& options,
                          std::int64_t epoch_round) {
  options.validate();
  options_ = options;
  epoch_ = epoch_round;
}

double Channel::u01(NodeId from, NodeId to, std::int64_t round,
                    std::uint64_t salt) const noexcept {
  // Chained SplitMix64 over the identifying tuple: each input perturbs the
  // state, each splitmix64 call both advances and avalanches it. ~4 cheap
  // finalizer evaluations per decision; no state is retained.
  std::uint64_t state = options_.seed ^ (salt * kGolden);
  state ^= util::splitmix64(state) ^
           (static_cast<std::uint64_t>(static_cast<std::int64_t>(from)) *
            kGolden);
  state ^= util::splitmix64(state) ^
           (static_cast<std::uint64_t>(static_cast<std::int64_t>(to)) *
            kGolden);
  state ^= util::splitmix64(state) ^
           (static_cast<std::uint64_t>(round) * kGolden);
  const std::uint64_t bits = util::splitmix64(state);
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

double Channel::directed_loss(NodeId from, NodeId to) const noexcept {
  double p = options_.loss;
  if (p > 0.0 && options_.asymmetry > 0.0) {
    // Stable per-link factor in [1 - a, 1 + a]; round -1 keys the per-link
    // (round-independent) stream.
    const double s = 2.0 * u01(from, to, -1, kSaltAsymmetry) - 1.0;
    p *= 1.0 + options_.asymmetry * s;
  }
  return std::min(p, 0.999999);
}

bool Channel::in_burst(NodeId from, NodeId to, std::int64_t round,
                       BurstMap& burst) const {
  BurstState& st = burst[pack_link(from, to)];
  if (st.round < epoch_ - 1) {
    st.round = epoch_ - 1;  // chain starts in the good state at the epoch
    st.bursting = false;
  }
  while (st.round < round) {
    ++st.round;
    const double u = u01(from, to, st.round, kSaltBurst);
    st.bursting = st.bursting ? (u >= options_.p_exit_burst)
                              : (u < options_.p_enter_burst);
  }
  return st.bursting;
}

Channel::Fate Channel::decide(NodeId from, NodeId to, std::int64_t round,
                              ShardState& state) const {
  Fate fate;
  double p_drop = directed_loss(from, to);
  if (options_.burst_loss > 0.0 && options_.p_enter_burst > 0.0 &&
      in_burst(from, to, round, state.burst)) {
    p_drop = std::max(p_drop, options_.burst_loss);
  }
  if (p_drop > 0.0 && u01(from, to, round, kSaltLoss) < p_drop) {
    fate.dropped = true;
    ++state.counters.dropped;
    return fate;
  }
  if (options_.reorder > 0.0 &&
      u01(from, to, round, kSaltReorder) < options_.reorder) {
    const double u = u01(from, to, round, kSaltDelay);
    fate.delay = 1 + static_cast<int>(u * options_.max_reorder_delay);
    fate.delay = std::min(fate.delay, options_.max_reorder_delay);
    ++state.counters.reordered;
  }
  if (options_.duplicate > 0.0 &&
      u01(from, to, round, kSaltDup) < options_.duplicate) {
    const double u = u01(from, to, round, kSaltDupDelay);
    // The copy lands in a strictly later round than the original so an
    // inbox never holds two identical same-round entries for one send.
    fate.duplicate = true;
    fate.dup_delay =
        fate.delay + 1 + static_cast<int>(u * options_.max_reorder_delay);
    fate.dup_delay =
        std::min(fate.dup_delay, fate.delay + options_.max_reorder_delay);
    ++state.counters.duplicated;
  }
  return fate;
}

void Channel::absorb(ShardState& state) noexcept {
  counters_.dropped += state.counters.dropped;
  counters_.duplicated += state.counters.duplicated;
  counters_.reordered += state.counters.reordered;
  state.counters = Counters{};
}

}  // namespace ftc::sim
