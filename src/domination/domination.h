// k-fold dominating set definitions and feasibility checking.
//
// The paper uses two closely related notions (Section 4.1):
//
//  * Paper definition (Section 1): S ⊆ V is a k-fold dominating set if every
//    node v ∈ V \ S has at least k neighbors in S. Nodes inside S have no
//    coverage requirement.
//
//  * LP definition (program (PP)): every node i — member of S or not — must
//    satisfy Σ_{j ∈ N_i} x_j ≥ k_i over its *closed* neighborhood N_i
//    (so an S-member covers itself once). Demands k_i may vary per node.
//
// A set feasible under the LP definition is feasible under the paper
// definition for k = min_i k_i (for v ∉ S the closed and open neighborhood
// coverages coincide). The algorithms in this library target the LP
// definition, exactly as in the paper; both checkers are provided.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace ftc::domination {

/// Per-node coverage demand k_i. Size must equal the graph's node count.
using Demands = std::vector<std::int32_t>;

/// Which coverage rule to check (see file comment).
enum class Mode {
  kClosedNeighborhood,  ///< LP definition: every node, closed neighborhood
  kOpenForNonMembers,   ///< paper definition: only v ∉ S, open neighborhood
};

/// Demands with k_i = k for every node.
[[nodiscard]] Demands uniform_demands(graph::NodeId n, std::int32_t k);

/// For every node i, the number of set members in its closed neighborhood
/// N_i = {i} ∪ neighbors(i). `members[v]` marks membership. This is the
/// scalar reference implementation; the word-packed kernels in kernels.h
/// are property-tested bitwise-equal to it and are what hot paths use.
[[nodiscard]] std::vector<std::int32_t> closed_coverage_counts(
    const graph::Graph& g, std::span<const std::uint8_t> members);

/// Converts a node-id list to a membership bitmap of size g.n().
[[nodiscard]] std::vector<std::uint8_t> to_membership(
    const graph::Graph& g, std::span<const graph::NodeId> set);

/// Converts a membership bitmap to the sorted list of member ids.
[[nodiscard]] std::vector<graph::NodeId> to_node_list(
    std::span<const std::uint8_t> members);

/// True iff `set` satisfies the demands under `mode`.
[[nodiscard]] bool is_k_dominating(const graph::Graph& g,
                                   std::span<const graph::NodeId> set,
                                   const Demands& demands,
                                   Mode mode = Mode::kClosedNeighborhood);

/// Uniform-k convenience overload.
[[nodiscard]] bool is_k_dominating(const graph::Graph& g,
                                   std::span<const graph::NodeId> set,
                                   std::int32_t k,
                                   Mode mode = Mode::kClosedNeighborhood);

/// Total shortfall Σ_i max(0, required_i - achieved_i) of `set` w.r.t. the
/// demands under `mode`. Zero iff is_k_dominating. Allocates a packed
/// membership per call; callers in loops should hold a CoverageScratch and
/// use the no-alloc overload in kernels.h instead.
[[nodiscard]] std::int64_t deficiency(const graph::Graph& g,
                                      std::span<const graph::NodeId> set,
                                      const Demands& demands,
                                      Mode mode = Mode::kClosedNeighborhood);

/// True iff the instance admits any feasible solution. Under the LP
/// definition this is k_i ≤ deg(i) + 1 for all i (take S = V); under the
/// paper definition every instance is feasible (S = V leaves V \ S empty).
[[nodiscard]] bool instance_feasible(const graph::Graph& g,
                                     const Demands& demands,
                                     Mode mode = Mode::kClosedNeighborhood);

/// Clamps each demand to the maximum satisfiable value deg(i)+1 (LP mode).
/// Useful for generating feasible random instances.
[[nodiscard]] Demands clamp_demands(const graph::Graph& g,
                                    const Demands& demands);

/// The demands that survive node failures: clamp_demands on the live graph
/// (typically g.without_nodes(dead)), and 0 for every dead node — the dead
/// neither need nor provide coverage.
[[nodiscard]] Demands live_demands(const graph::Graph& live,
                                   std::span<const graph::NodeId> dead,
                                   const Demands& demands);

}  // namespace ftc::domination
