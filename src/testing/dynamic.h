// DynamicOracle: replay-based auditing of the incremental-maintenance
// stack (DESIGN.md §13).
//
// A fuzz case with run_dynamic carries a seed-pure mutation trace. The
// oracle replays that trace through sim::DynamicWorld +
// algo::IncrementalMaintainer and, after every batch, re-derives the ground
// truth from scratch: a full coverage re-solve for k-coverage, an
// independent two-hop BFS for the locality ball, a brute-force O(n²)
// geometric rebuild for the UDG edge set, and a second full replay for
// determinism. Every clause of the maintainer contract (maintainer.h) is a
// named invariant, so a violation shrinks like any other fuzz failure —
// including trace-length shrinking, which is sound because the trace is
// drawn per-mutation in order (generators.h).
#pragma once

#include "sim/mutation.h"
#include "testing/generators.h"
#include "testing/invariants.h"
#include "testing/mutants.h"

namespace ftc::testing {

/// Materializes the mutation trace a case describes — a pure function of
/// (c.mutation_seed, c.mutations, c.mutation_batch, inst). Draws happen
/// per-mutation in order, so a case with `mutations` reduced yields an
/// exact prefix of the longer trace: trace shrinking minimizes the trace,
/// not just the topology. Geometric instances draw join/leave/move with
/// positions inside the deployment's bounding box (grown by half a radius
/// so joins can land just outside the swarm); combinatorial instances draw
/// anchored joins, leaves, and edge flips.
[[nodiscard]] sim::MutationTrace trace_from_case(const FuzzCase& c,
                                                 const Instance& inst);

/// Replays the case's trace and checks, per batch:
///   dynamic.coverage        — membership k-covers the post-batch world
///   dynamic.locality        — membership diff ⊆ independently-computed ball2
///   dynamic.over_promotion  — promotions <= the batch's coverage deficit
///   dynamic.changed_report  — MaintainResult::changed == actual diff
///   dynamic.member_live     — no inactive node stays a member
///   dynamic.udg_incremental — incremental UDG edges == brute-force rebuild
/// and, once per case:
///   dynamic.rebuild_roundtrip — the final mutated snapshot equals its
///                              from_edges rebuild (rebuild-vs-mutate)
///   dynamic.determinism      — a second full replay is bitwise identical
///   engine.dynamic_parallel  — RepairProcess over the post-churn topology
///                              (case channel installed) is width-invariant
///                              (run_differential cases with threads > 1)
/// Mutation::kMaintainerNoPromotion disables the maintainer's promotion
/// wave, which dynamic.coverage must catch — the harness-sensitivity tests
/// assert it does within a bounded number of cases.
void check_dynamic(const FuzzCase& c, const Instance& inst, Mutation mutation,
                   Violations& out);

}  // namespace ftc::testing
