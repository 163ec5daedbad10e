// Streaming topology mutations (DESIGN.md §13).
//
// Long-lived sensor networks are the paper's motivating deployment: nodes
// join, die, and move while the clustering must stay k-fold dominating.
// This header is the mutation vocabulary — Mutation/TimedMutation traces
// are the replayable unit the fuzzer generates, the tools print, and the
// DynamicOracle shrinks — plus DynamicWorld, the stateful topology that
// absorbs a trace between simulation rounds.
//
// DynamicWorld comes in two modes:
//   - geometric (constructed from a UnitDiskGraph): joins/moves carry a
//     position and edges are recomputed incrementally from geometry
//     (DynamicUdg); edge_flip is rejected — a UDG's edge set is a function
//     of its embedding, so a flipped edge would silently disappear at the
//     next move and break the rebuild-equivalence contract.
//   - combinatorial (constructed from a plain Graph): joins anchor to the
//     closed neighborhood of a peer node, moves re-anchor the node the same
//     way, and edge_flip toggles a single edge.
//
// Defensive clamping, not UB: mutations referencing inactive or
// out-of-range nodes are recorded as applied=false no-ops, so any fuzzer
// trace replays cleanly on any topology. A non-finite join/move position in
// geometric mode is malformed, not a no-op: apply() throws
// std::invalid_argument and leaves the world unchanged. Invariant
// maintained in both modes: adjacency holds active-active edges only
// (departed nodes are isolated and stay isolated; flips/joins touching
// inactive nodes are no-ops).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "geom/dynamic.h"
#include "graph/dynamic.h"
#include "graph/graph.h"

namespace ftc::sim {

enum class MutationKind : std::int32_t {
  kJoin = 0,   ///< new node appears (geometric: at (x,y); plain: near peer)
  kLeave = 1,  ///< node departs for good (id stays, becomes isolated)
  kMove = 2,   ///< node relocates (geometric: to (x,y); plain: re-anchors)
  kFlip = 3,   ///< single edge {node, peer} toggles (combinatorial mode only)
};

inline constexpr int kMutationKindCount = 4;

[[nodiscard]] const char* mutation_kind_name(MutationKind k) noexcept;

/// One topology mutation. Fields not used by a kind stay at their defaults.
struct Mutation {
  MutationKind kind = MutationKind::kLeave;
  graph::NodeId node = -1;  ///< leave/move target, flip endpoint
  graph::NodeId peer = -1;  ///< flip endpoint, join/move anchor (plain mode)
  double x = 0.0;           ///< join/move position (geometric mode)
  double y = 0.0;

  friend bool operator==(const Mutation&, const Mutation&) = default;
};

/// A mutation scheduled for the gap after simulation round `round`.
/// Mutations sharing a round form one batch.
struct TimedMutation {
  std::int64_t round = 0;
  Mutation m;

  friend bool operator==(const TimedMutation&, const TimedMutation&) = default;
};

using MutationTrace = std::vector<TimedMutation>;

/// One-line trace serialization ("round:kind:node:peer:x:y;..."), exact
/// round-trip including positions.
[[nodiscard]] std::string to_string(const MutationTrace& trace);

/// Inverse of to_string. Throws std::invalid_argument on malformed input:
/// an entry without exactly six ':'-separated fields, a field with junk or
/// out of its type's range, an unknown kind, or a non-finite coordinate.
[[nodiscard]] MutationTrace parse_mutation_trace(const std::string& text);

/// What actually happened when a Mutation hit the world: the resolved
/// mutation (joins get their assigned node id filled in) and the exact edge
/// delta. applied=false marks a defensively-clamped no-op (empty delta).
struct AppliedMutation {
  Mutation m;
  graph::EdgeDelta delta;
  bool applied = false;
};

/// Stateful topology absorbing a mutation stream; see file header for the
/// two modes. All operations are deterministic.
class DynamicWorld {
 public:
  /// Geometric mode: incremental UDG edge recomputation.
  explicit DynamicWorld(const geom::UnitDiskGraph& udg);

  /// Combinatorial mode: anchored joins and edge flips.
  explicit DynamicWorld(const graph::Graph& g);

  [[nodiscard]] bool geometric() const noexcept { return udg_ != nullptr; }

  /// The incrementally-maintained UDG, or nullptr in combinatorial mode.
  [[nodiscard]] const geom::DynamicUdg* udg() const noexcept {
    return udg_.get();
  }

  [[nodiscard]] const graph::MutableGraph& graph() const noexcept {
    return udg_ ? udg_->graph() : plain_;
  }

  [[nodiscard]] graph::NodeId n() const noexcept { return graph().n(); }

  [[nodiscard]] bool active(graph::NodeId v) const noexcept;

  /// One byte per node, 1 = active.
  [[nodiscard]] const std::vector<std::uint8_t>& active_flags() const noexcept {
    return udg_ ? udg_->active_flags() : active_;
  }

  [[nodiscard]] graph::NodeId active_count() const noexcept;

  /// Applies one mutation (with defensive clamping) and reports the exact
  /// edge delta. Throws std::invalid_argument on a non-finite join/move
  /// position in geometric mode (see file header).
  AppliedMutation apply(const Mutation& m);

  /// Freezes the current adjacency into an immutable CSR Graph.
  [[nodiscard]] graph::Graph snapshot() const { return graph().to_graph(); }

 private:
  std::unique_ptr<geom::DynamicUdg> udg_;  ///< geometric mode only
  graph::MutableGraph plain_;              ///< combinatorial mode only
  std::vector<std::uint8_t> active_;       ///< combinatorial mode only
  std::vector<graph::NodeId> anchor_;      ///< apply's copy of N(peer)
};

}  // namespace ftc::sim
