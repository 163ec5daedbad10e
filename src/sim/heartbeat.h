// Heartbeat-based failure detection for per-node processes.
//
// In the crash model a dead neighbor is simply silent; a process that wants
// to *react* to failures (e.g. the distributed repair protocol) needs a
// failure detector. HeartbeatMonitor implements the classic timeout
// detector for the synchronous model:
//
//   * the host process broadcasts at least one message per round (its
//     protocol traffic doubles as the heartbeat — no extra messages, the
//     standard piggybacking optimization);
//   * observe(ctx), called first in every on_round, records which
//     neighbors were heard this round and suspects any neighbor not heard
//     from for more than `timeout` rounds.
//
// Under reliable links the detector is perfect: a node that crashes at the
// start of round r last reached its neighbors in round r - 1 (the message
// it sent in round r - 1 is still in flight and is dropped with the crash),
// so every live neighbor suspects it exactly at round r + timeout; a live
// neighbor is never suspected. Under message
// loss it is only eventually accurate: an unlucky loss streak can raise a
// *false* suspicion, which is withdrawn (and counted — refuted_suspicions())
// the moment the neighbor is heard again. Churn rejoins surface the same
// way: the monitor cannot distinguish a refuted false suspicion from a
// genuinely dead node that came back, so under churn refuted_suspicions()
// counts both (the soak harness separates them using the fault schedule).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/network.h"

namespace ftc::sim {

/// Timeout failure detector; embed one per process and call observe()
/// first thing in on_round(). See file comment for the contract.
///
/// One suspicion rule, M-of-N: keep a sliding window of the last N expected
/// beats and suspect only when >= M of them are missing *and* the current
/// round is silent. Options picks (M, N) two ways:
///   * consecutive timeout T (window == 0, the default): N = M = T + 1,
///     i.e. suspect after T consecutive silent rounds beyond the expected
///     one-round gap — perfect under reliable links, but a short loss
///     streak (p^(T+1) per link per round) false-suspects;
///   * explicit window (window > 0): N = window, M = misses_to_suspect.
///     Loss must now defeat M of N beats instead of a short streak, cutting
///     the false-suspicion rate by orders of magnitude at equal detection
///     latency (which is ~M rounds after a real crash).
class HeartbeatMonitor {
 public:
  struct Options {
    /// Consecutive timeout T, used when window == 0: a neighbor is
    /// suspected after T consecutive silent rounds beyond the expected gap
    /// of one round between send and delivery. In [0, 62].
    std::int64_t timeout = 4;
    /// Sliding window length N when > 0, in [1, 63].
    int window = 0;
    /// Misses within the window needed to suspect; in [0, window] when
    /// window > 0 (0 defaults to `window`, i.e. every beat in the window
    /// missing).
    int misses_to_suspect = 0;
  };

  HeartbeatMonitor();
  /// Throws std::invalid_argument when an option is out of its range (a
  /// window beyond 63 beats does not fit the 64-bit beat history).
  explicit HeartbeatMonitor(Options options);

  /// Processes this round's inbox: refreshes liveness, withdraws refuted
  /// suspicions, raises new ones. Must be called every round the host runs,
  /// before the host reads suspects().
  void observe(Context& ctx);

  /// True if neighbor w is currently suspected dead. Precondition: w is a
  /// neighbor and observe() has run at least once.
  [[nodiscard]] bool suspects(graph::NodeId w) const;

  /// Currently suspected neighbors, ascending.
  [[nodiscard]] std::vector<graph::NodeId> suspected() const;

  /// Total suspicions ever raised (including ones later refuted).
  [[nodiscard]] std::int64_t suspicions_raised() const noexcept {
    return suspicions_raised_;
  }

  /// Suspicions withdrawn because the neighbor was heard again. Under
  /// crash-only faults with lossy links these are exactly the detector's
  /// false suspicions; under churn they also include genuine rejoins.
  [[nodiscard]] std::int64_t refuted_suspicions() const noexcept {
    return refuted_suspicions_;
  }

 private:
  [[nodiscard]] std::size_t index_of(graph::NodeId w) const;

  int window_ = 0;      ///< N: beats in the sliding window
  int misses_ = 0;      ///< M: misses within the window that suspect
  std::uint64_t mask_ = 0;  ///< low window_ bits
  bool initialized_ = false;
  std::vector<graph::NodeId> neighbors_;   // sorted copy from the Context
  std::vector<std::uint8_t> suspected_;    // per neighbor index
  std::vector<std::uint64_t> heard_bits_;  // bit i = heard i rounds ago
  std::int64_t suspicions_raised_ = 0;
  std::int64_t refuted_suspicions_ = 0;
};

/// Worst-case rounds from a neighbour's crash to its suspicion, as soak
/// accounting budgets it: the timeout, or the longer of the timeout and the
/// window when a window is set (a crash is suspected once the required
/// misses accumulate, at worst `window` rounds later).
[[nodiscard]] std::int64_t detection_latency(
    const HeartbeatMonitor::Options& options) noexcept;

}  // namespace ftc::sim
