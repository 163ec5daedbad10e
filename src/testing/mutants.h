// Deliberately broken algorithm variants for mutation-testing the fuzz
// harness itself (DESIGN.md §8).
//
// A property harness that never fires is indistinguishable from one that
// cannot fire. These mutants inject known, paper-relevant bugs; the sanity
// tests (tests/fuzz) assert the invariant library flags each one within a
// bounded number of fuzz cases — and the same switch is exposed on the
// ftc-fuzz CLI so the harness can be re-validated after any change.
#pragma once

#include <cstdint>
#include <string>

#include "algo/rounding/rounding.h"
#include "domination/domination.h"
#include "graph/graph.h"

namespace ftc::testing {

/// Which bug to inject into the pipeline under test.
enum class Mutation : std::int32_t {
  kNone = 0,
  /// Algorithm 2 request step believes every shortfall is one smaller than
  /// it is (off-by-one coverage): deficient nodes under-request, so the
  /// integral set can miss demands — must be caught by the k-coverage
  /// invariant.
  kRoundingUnderRequest,
  /// Algorithm 2 skips the coin phase's last node (boundary bug in the
  /// per-node loop): its x-mass is silently dropped.
  kRoundingDropLastCoin,
  /// The IncrementalMaintainer's promotion wave never runs (its demotion
  /// and drop bookkeeping stay intact): any mutation batch that creates a
  /// coverage deficit leaves it unrepaired — must be caught by the
  /// DynamicOracle's k-coverage invariant, and trace shrinking must
  /// minimize the mutation count, not just the topology.
  kMaintainerNoPromotion,
};

/// Parses a CLI spelling ("none", "rounding-under-request",
/// "rounding-drop-last-coin", "maintainer-no-promotion"); throws
/// std::invalid_argument otherwise.
[[nodiscard]] Mutation parse_mutation(const std::string& name);

/// Name of a mutation (inverse of parse_mutation).
[[nodiscard]] const char* mutation_name(Mutation m);

/// Algorithm 2 with `mutation` injected as an edit of its input:
/// kRoundingUnderRequest rounds against demands − 1, kRoundingDropLastCoin
/// against x with its last entry zeroed. Any other mutation calls
/// round_fractional() unchanged, so a mutant differs from the real algorithm
/// by precisely its injected bug.
[[nodiscard]] algo::RoundingResult round_fractional_mutant(
    const graph::Graph& g, const domination::FractionalSolution& x,
    const domination::Demands& demands, std::uint64_t seed, Mutation mutation);

}  // namespace ftc::testing
