// Reusable invariant library for the fuzzing harness (DESIGN.md §8).
//
// Each check encodes one guarantee the stack claims — straight from the
// paper's theorems or from the simulator's own contracts — as a predicate
// over a materialized fuzz case:
//
//   * lp.*        — Theorem 4.5: (PP)-feasibility of Algorithm 1's primal,
//                   Lemma 4.1's ratio bound, (DP)-feasibility of the scaled
//                   dual, weak duality, and the approximation-ratio bound
//                   against the best lower bound;
//   * rounding.*  — Theorem 4.6: the integral set k-covers every demand,
//                   and the mirror's accounting is self-consistent;
//   * oracle.*    — differential cross-checks on small instances: exact
//                   branch-and-bound vs greedy vs LP+rounding orderings;
//   * engine.*    — serial-vs-parallel bitwise equality of the round engine
//                   (set_threads) and channel independence of Algorithms
//                   1–3 (the α-synchronizer must make delay schedules,
//                   loss, bursts and duplication unobservable);
//   * sync.*      — a synchronized run stays within the virtual-time budget
//                   (sim::round_budget) and sends frames of at most two
//                   envelopes;
//   * udg.*       — Theorem 5.7 / Lemmas 5.1: Algorithm 3's leader sets
//                   dominate, and mirror == distributed;
//   * repair.*    — the self-healing daemon restores coverage and promotes
//                   at most the centralized oracle plus the 2-hop damage
//                   slack (PR 1's differential contract);
//   * obs.*       — the observability registry agrees with the engine's
//                   Metrics struct, and the registry JSON and trace JSONL
//                   are byte-identical across thread counts;
//   * term.*      — every bounded protocol halts within its round budget.
//
// All checks append Violations instead of asserting, so one case can report
// every broken invariant at once and the runner/shrinker can match on the
// invariant name.
#pragma once

#include <string>
#include <vector>

#include "testing/generators.h"
#include "testing/mutants.h"

namespace ftc::testing {

/// One broken invariant: a stable name (for matching/shrinking) plus a
/// human-readable detail.
struct Violation {
  std::string invariant;
  std::string detail;
};

using Violations = std::vector<Violation>;

/// Runs every invariant suite the case selects against its materialized
/// instance and returns all violations (empty = the case passed). The
/// mandatory LP + rounding battery always runs; optional suites follow the
/// case's run_* toggles. `mutation` injects a known bug into the pipeline
/// under test (mutation-testing the harness itself).
[[nodiscard]] Violations check_case(const FuzzCase& c,
                                    Mutation mutation = Mutation::kNone);

}  // namespace ftc::testing
