// High-performance coverage/deficiency kernels over word-packed membership.
//
// The scalar checkers in domination.h are the semantic reference: one byte
// per node, a fresh bitmap and coverage vector allocated per call. That is
// fine for unit tests but became the hot path of the fuzzer's invariant
// battery and every differential oracle once the simulator stopped being
// the bottleneck. This header is the shared
// kernel layer those callers — and the upcoming multi-backend solver arena —
// sit on:
//
//   * MembershipBits packs membership into 64-bit words (1 bit/node), so a
//     million-node membership fits in 122 KiB instead of 1 MiB and the
//     whole structure stays cache-resident during neighborhood scans.
//   * closed_coverage_counts() over MembershipBits picks between two
//     kernels by member density: a blocked gather (per node, popcount-style
//     bit tests over its CSR row) when the set is dense, and a member
//     scatter (zero the counts, then bump the closed neighborhood of each
//     member) when it is sparse — for dominating-set-sized sets the scatter
//     touches only the members' edges, a small fraction of 2m. Both kernels
//     produce identical integer counts, so the selection is unobservable.
//   * deficiency()/is_k_dominating() overloads take caller-owned scratch
//     (CoverageScratch) and allocate nothing in steady state.
//
// Every kernel is property-tested bitwise-equal to the scalar reference
// across all fuzzer topology families (tests/domination/kernels_test.cpp and
// the kernel.* fuzz invariants).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "domination/domination.h"
#include "graph/graph.h"

namespace ftc::domination {

/// Word-packed membership bitmap over node ids [0, n). Reusable: reset()
/// and the assign() overloads only reallocate when n grows past the
/// high-water capacity, so a long-lived instance reaches a no-alloc steady
/// state.
class MembershipBits {
 public:
  MembershipBits() = default;

  /// Sizes the bitmap for n nodes and clears every bit.
  void reset(graph::NodeId n);

  /// reset(n) followed by setting every id in `set`. Ids must lie in [0, n).
  void assign(graph::NodeId n, std::span<const graph::NodeId> set);

  /// reset(members.size()) followed by setting ids with members[v] != 0.
  void assign(std::span<const std::uint8_t> members);

  void set(graph::NodeId v) noexcept {
    words_[word_of(v)] |= bit_of(v);
  }
  void clear(graph::NodeId v) noexcept {
    words_[word_of(v)] &= ~bit_of(v);
  }
  [[nodiscard]] bool test(graph::NodeId v) const noexcept {
    return (words_[word_of(v)] & bit_of(v)) != 0;
  }

  /// Number of nodes the bitmap spans.
  [[nodiscard]] graph::NodeId n() const noexcept { return n_; }

  /// Number of set bits (members). O(n/64) popcount scan.
  [[nodiscard]] std::int64_t count() const noexcept;

  /// The packed words (ceil(n/64) of them; trailing bits are zero).
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return {words_.data(), words_.size()};
  }

 private:
  static std::size_t word_of(graph::NodeId v) noexcept {
    return static_cast<std::size_t>(v) >> 6;
  }
  static std::uint64_t bit_of(graph::NodeId v) noexcept {
    return std::uint64_t{1} << (static_cast<std::uint32_t>(v) & 63);
  }

  std::vector<std::uint64_t> words_;
  graph::NodeId n_ = 0;
};

/// Caller-owned scratch for the no-alloc checker overloads. Reused across
/// calls; buffers grow to the largest instance seen and then stay put.
struct CoverageScratch {
  MembershipBits members;
  std::vector<std::int32_t> cover;
};

/// Closed-neighborhood coverage counts over packed membership, written into
/// caller storage. out.size() must equal g.n(); allocates nothing.
/// Bitwise-equal to the scalar closed_coverage_counts (domination.h).
void closed_coverage_counts(const graph::Graph& g,
                            const MembershipBits& members,
                            std::span<std::int32_t> out);

/// Total demand shortfall of the packed set under `mode`, fused over the
/// graph without materializing a coverage vector. Allocates nothing.
/// Equal to the scalar deficiency() over the same membership.
[[nodiscard]] std::int64_t deficiency(const graph::Graph& g,
                                      const MembershipBits& members,
                                      const Demands& demands,
                                      Mode mode = Mode::kClosedNeighborhood);

/// Scratch-based deficiency over a node-id set: builds the packed
/// membership in `scratch` (no allocation in steady state) and runs the
/// fused kernel. Drop-in for the allocating deficiency() in domination.h.
[[nodiscard]] std::int64_t deficiency(const graph::Graph& g,
                                      std::span<const graph::NodeId> set,
                                      const Demands& demands, Mode mode,
                                      CoverageScratch& scratch);

/// Scratch-based k-domination check (deficiency == 0).
[[nodiscard]] bool is_k_dominating(const graph::Graph& g,
                                   std::span<const graph::NodeId> set,
                                   const Demands& demands, Mode mode,
                                   CoverageScratch& scratch);

}  // namespace ftc::domination
