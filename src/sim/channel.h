// Per-link unreliable-channel models for the network simulators.
//
// The paper targets sensor deployments where the radio — not the node — is
// the flaky part. This module factors every link-level impairment the
// simulators support into one declarative description (ChannelOptions) and
// one decision engine (Channel):
//
//   * iid loss        — every delivery is dropped independently (the classic
//                       packet-erasure channel);
//   * asymmetric loss — each directed link gets a stable per-link loss
//                       factor, so A→B and B→A can differ (real radios are
//                       rarely symmetric);
//   * burst loss      — a two-state Gilbert–Elliott chain per directed link:
//                       links flip between a good state (iid loss applies)
//                       and a burst state with its own, higher, drop rate;
//   * duplication     — a delivered message may arrive again in a strictly
//                       later round;
//   * bounded reorder — a delivery may be delayed by up to max_reorder_delay
//                       rounds, letting newer messages overtake it.
//
// Determinism contract: every decision is a pure function of
// (options.seed, from, to, send round) computed by stateless hashing — no
// sequential RNG stream is consumed. The synchronous model admits at most
// one message per directed link per round, so the tuple uniquely identifies
// a transmission and the verdict is independent of delivery order, thread
// count, and of which other messages exist. The Gilbert–Elliott state is a
// per-link Markov chain, but each step's coin is the same stateless hash of
// (link, round), so the state at round r is itself a pure function of
// (seed, link, r) — the cached state in a ShardState's burst map is only an
// incremental evaluation of that function. A network's channel is
// configured before round 0 (SyncNetwork::set_channel) and holds for the
// whole run, so every chain starts in the good state before round 0.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "graph/graph.h"

namespace ftc::sim {

/// Declarative description of a link impairment mix. Default-constructed
/// options describe a clean channel (impaired() == false). Validation is
/// strict: out-of-range probabilities throw instead of clamping silently.
struct ChannelOptions {
  /// Baseline iid drop probability per delivery, in [0, 1).
  double loss = 0.0;
  /// Per-directed-link loss spread in [0, 1]: link (u, v) drops with
  /// probability loss * (1 + asymmetry * s) for a stable per-link
  /// s ∈ [-1, 1], so forward and reverse rates differ. 0 = symmetric.
  double asymmetry = 0.0;
  /// Probability a delivered message is duplicated, in [0, 1]. The copy
  /// arrives 1..max_reorder_delay rounds after the original.
  double duplicate = 0.0;
  /// Probability a delivery is delayed (reordered), in [0, 1].
  double reorder = 0.0;
  /// Maximum extra rounds a delayed (or duplicated) delivery waits; >= 1
  /// whenever reorder > 0 or duplicate > 0.
  int max_reorder_delay = 2;
  /// Drop probability while a link's Gilbert–Elliott chain is bursting,
  /// in [0, 1). Effective only when p_enter_burst > 0.
  double burst_loss = 0.0;
  /// Per-round good→burst transition probability, in [0, 1].
  double p_enter_burst = 0.0;
  /// Per-round burst→good transition probability, in (0, 1].
  double p_exit_burst = 0.5;
  /// Seed of the stateless decision hash. Independent of process streams.
  std::uint64_t seed = 0x10551055ULL;

  /// True when any impairment can actually fire.
  [[nodiscard]] bool impaired() const noexcept {
    return loss > 0.0 || duplicate > 0.0 || reorder > 0.0 ||
           (burst_loss > 0.0 && p_enter_burst > 0.0);
  }

  /// Throws std::invalid_argument naming the offending field when any
  /// probability is NaN/out of range or max_reorder_delay is non-positive
  /// while reordering/duplication is enabled.
  void validate() const;

  friend bool operator==(const ChannelOptions&,
                         const ChannelOptions&) = default;
};

/// Decision engine for one network. Owns the options and the impairment
/// counters; callers keep the per-link burst chains in ShardStates. The
/// verdict for a transmission is returned as a Fate and the caller (the
/// network) implements it.
class Channel {
 public:
  /// Verdict for the unique message on directed link from→to in a round.
  struct Fate {
    bool dropped = false;  ///< lost; nothing else applies
    int delay = 0;         ///< extra rounds before delivery (0 = on time)
    bool duplicate = false;
    int dup_delay = 0;     ///< extra rounds for the duplicate copy (>= 1)
  };

  struct Counters {
    std::int64_t dropped = 0;     ///< messages lost (iid + asymmetry + burst)
    std::int64_t duplicated = 0;  ///< extra copies created
    std::int64_t reordered = 0;   ///< deliveries delayed

    friend bool operator==(const Counters&, const Counters&) = default;
  };

  struct BurstState {
    std::int64_t round = -1;  ///< chain evaluated through this round
    bool bursting = false;
  };
  using BurstMap = std::unordered_map<std::uint64_t, BurstState>;  // by link

  /// Private decision state for one parallel delivery shard. Because every
  /// verdict is a pure function of (options, link, round), a per-shard burst
  /// cache is only a private memoization of that function — shards may
  /// decide concurrently without sharing state, and the results are
  /// identical to any other shard assignment. The
  /// counters accumulate shard-locally and are folded into the channel's
  /// global counters (an order-independent sum) via absorb() at the round
  /// barrier.
  struct ShardState {
    BurstMap burst;
    Counters counters;
  };

  Channel() = default;
  explicit Channel(const ChannelOptions& options) { set_options(options); }

  /// Replaces the options (validating them). Counters persist. Call it
  /// before the first decide(): a ShardState memoizes burst chains under
  /// the options they were evaluated with.
  void set_options(const ChannelOptions& options);

  [[nodiscard]] const ChannelOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] bool impaired() const noexcept { return options_.impaired(); }

  /// Decides the fate of the message sent on from→to in `round`. Pure in
  /// (options, from, to, round) — see the determinism contract above.
  /// Computed against a caller-owned ShardState, so distinct shards may
  /// call it concurrently; counts into state.counters.
  [[nodiscard]] Fate decide(graph::NodeId from, graph::NodeId to,
                            std::int64_t round, ShardState& state) const;

  /// Folds a shard's counters into the global counters and zeroes them.
  /// The shard's burst cache is kept (it stays a valid memoization).
  void absorb(ShardState& state) noexcept;

  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }

 private:
  /// Stateless hash of (seed, from, to, round, salt) to a double in [0, 1).
  [[nodiscard]] double u01(graph::NodeId from, graph::NodeId to,
                           std::int64_t round,
                           std::uint64_t salt) const noexcept;

  /// Effective iid loss of the directed link (asymmetry applied), < 1.
  [[nodiscard]] double directed_loss(graph::NodeId from,
                                     graph::NodeId to) const noexcept;

  /// Gilbert–Elliott state of from→to at `round`, evaluated incrementally
  /// in the supplied cache.
  [[nodiscard]] bool in_burst(graph::NodeId from, graph::NodeId to,
                              std::int64_t round, BurstMap& burst) const;

  ChannelOptions options_;
  Counters counters_;
};

}  // namespace ftc::sim
