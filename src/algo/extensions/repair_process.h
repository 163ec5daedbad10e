// Distributed self-healing of a k-fold dominating set (mirror: repair.h).
//
// repair_after_failures() is the omniscient statement of local repair: an
// observer who knows every crash removes the dead dominators and greedily
// promotes highest-deficiency-span neighbors until coverage is restored.
// RepairProcess is the same idea as an actual protocol: every node runs it
// forever as a daemon, detects dead neighbors itself with a heartbeat
// failure detector (sim/heartbeat.h), and repairs coverage with local
// promotion waves — no global coordinator, no global knowledge.
//
// One repair wave spans kRepairRoundsPerWave = 4 network rounds, keyed on
// the globally known round number (ctx.round() % 4), so nodes — including
// ones that just rejoined after churn — are always phase-aligned:
//
//   P0 MEMBER:  absorb VOTE messages from the previous wave: a non-member
//               named by any vote promotes itself. Broadcast the (possibly
//               new) membership bit.                              [2 words]
//   P1 DEFICIT: absorb membership bits; recompute the residual demand
//               (own demand minus live, unsuspected members in the closed
//               neighborhood). Broadcast the deficiency flag.     [2 words]
//   P2 SPAN:    absorb deficiency flags; a non-member computes its span =
//               number of deficient nodes in its closed neighborhood it
//               could help. Broadcast the span (members: 0).      [2 words]
//   P3 VOTE:    absorb spans; a deficient node elects the best candidate
//               in its closed neighborhood — highest span wins, ids break
//               ties — and broadcasts the vote.                   [2 words]
//
// Every message is [phase, value]: the phase tag of the round it was sent
// in. Under reliable links the tag is redundant (a message sent in phase P
// always arrives in phase P+1), but reordering links (sim/channel.h) can
// deliver a frame rounds late and duplication can replay it; a receiver
// only absorbs messages whose tag matches the previous phase and drops the
// rest, so a stale SPAN word is never misread as a VOTE. Dropping a stale
// message is always safe: it is indistinguishable from the loss the wave
// already tolerates, and every phase re-broadcasts fresh state.
//
// Every round broadcasts exactly one message, so protocol traffic doubles
// as the heartbeat (piggybacking; the failure detector never sends
// anything — and counts *any* arrival as life, stale or not).
//
// Relation to the centralized oracle: the oracle promotes sequentially, one
// globally best candidate at a time; a wave promotes every elected
// candidate in parallel. Each deficient node's winner is a live non-member
// in its closed neighborhood chosen by the same (span, id) order, so with
// perfect detection (no message loss) the repaired set satisfies every
// satisfiable live demand, and the parallelism costs at most the 2-hop
// damage region in extra promotions — the differential tests pin both
// properties. Residual demands shrink by at least one per wave per
// deficient node, so repair completes within max demand waves after
// detection: coverage is restored in O(timeout + k) rounds.
//
// Under message loss the detector can falsely suspect a live member; the
// protocol then over-promotes (never under-covers) and the false suspicion
// is withdrawn and counted when the member is heard again. Under churn a
// rejoined node boots a fresh non-member RepairProcess; its own coverage
// demand re-enters through the normal deficiency path.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/heartbeat.h"
#include "sim/network.h"

namespace ftc::algo {

/// Rounds per repair wave (phases P0..P3 above).
inline constexpr std::int64_t kRepairRoundsPerWave = 4;

/// Per-node self-healing daemon, which maintains closed-neighborhood
/// coverage (domination::Mode::kClosedNeighborhood). Never halts — run the
/// network for a round budget and inspect member() afterwards.
class RepairProcess final : public sim::Process {
 public:
  /// `demand` is this node's k_i; `initially_member` marks the backbone
  /// membership computed by whichever construction algorithm ran before.
  /// `detection` configures the embedded failure detector: a timeout by
  /// default, or an M-of-N window under lossy links, where a short timeout
  /// false-suspects too eagerly (see sim::HeartbeatMonitor).
  RepairProcess(std::int32_t demand, bool initially_member,
                sim::HeartbeatMonitor::Options detection = {});

  void on_round(sim::Context& ctx) override;

  /// True iff this node currently believes it is in the dominating set.
  [[nodiscard]] bool member() const noexcept { return member_; }
  /// Residual demand as of the last DEFICIT phase (0 = covered).
  [[nodiscard]] std::int32_t residual() const noexcept { return residual_; }
  /// True iff the last wave found this node deficient with no live
  /// non-member candidate left in its closed neighborhood (the distributed
  /// analogue of RepairResult::fully_satisfied == false).
  [[nodiscard]] bool unsatisfied() const noexcept { return unsatisfied_; }
  /// Number of times this node joined the set.
  [[nodiscard]] std::int64_t joins() const noexcept { return joins_; }

  /// The embedded failure detector (suspicion statistics).
  [[nodiscard]] const sim::HeartbeatMonitor& monitor() const noexcept {
    return monitor_;
  }

 private:
  void phase_member(sim::Context& ctx);
  void phase_deficit(sim::Context& ctx);
  void phase_span(sim::Context& ctx);
  void phase_vote(sim::Context& ctx);

  /// Index of neighbor w in the sorted neighbor list.
  [[nodiscard]] std::size_t index_of(sim::Context& ctx,
                                     graph::NodeId w) const;

  sim::HeartbeatMonitor monitor_;
  std::int32_t demand_ = 0;
  bool member_ = false;
  std::int32_t residual_ = 0;
  bool deficient_ = false;
  bool unsatisfied_ = false;
  std::int64_t joins_ = 0;
  std::int64_t own_span_ = 0;
  bool self_elected_ = false;  ///< won this wave's own vote; join at next P0

  // Per-neighbor knowledge, indexed like ctx.neighbors(). kUnknown until
  // the first membership bit is heard (fresh boot / churn rejoin): a node
  // never acts on a neighborhood it has not fully heard from.
  enum : std::uint8_t { kUnknown = 0, kNonMember = 1, kMember = 2 };
  std::vector<std::uint8_t> nbr_membership_;
  std::vector<std::uint8_t> nbr_deficient_;
  std::vector<std::int64_t> nbr_span_;
};

}  // namespace ftc::algo
