// The mutation-trace fuzzing dimension (DESIGN.md §13): seed-pure trace
// generation with an exact prefix property, backward-compatible case lines,
// a clean forced-dynamic campaign over the full DynamicOracle, mutation
// testing for the maintainer (a broken promotion wave must be caught by a
// dynamic.* invariant), and trace-aware shrinking (the minimizer reduces
// the trace, not just the topology).
#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "testing/dynamic.h"
#include "testing/generators.h"
#include "testing/invariants.h"
#include "testing/mutants.h"
#include "testing/runner.h"

namespace ftc::testing {
namespace {

TEST(DynamicFuzzGenerator, OldCaseLinesWithoutDynamicKeysStillParse) {
  // Case lines written before the dynamic dimension existed carry none of
  // the four mutation keys; they must parse to "dynamic off" defaults, so
  // every archived repro line keeps reproducing byte-identically.
  for (std::int64_t i = 0; i < 50; ++i) {
    const FuzzCase c = generate_case(case_seed_of(21, i));
    std::string line = to_string(c);
    const std::size_t cut = line.find(" run_dynamic=");
    ASSERT_NE(cut, std::string::npos) << line;
    line.resize(cut);  // the dynamic keys are the trailing key group
    const FuzzCase parsed = parse_fuzz_case(line);
    FuzzCase expected = c;
    expected.run_dynamic = false;
    expected.mutations = 0;
    expected.mutation_batch = 1;
    expected.mutation_seed = 1;
    EXPECT_EQ(parsed, expected) << line;
  }
}

TEST(DynamicFuzzGenerator, DynamicFieldsRoundTripAndForceFlagSticks) {
  FuzzConfig config;
  config.force_dynamic = true;
  for (std::int64_t i = 0; i < 50; ++i) {
    const FuzzCase c = generate_case(case_seed_of(31, i), config);
    ASSERT_TRUE(c.run_dynamic);
    ASSERT_GE(c.mutations, 1);
    ASSERT_LE(c.mutations, kFuzzMaxMutations);
    ASSERT_GE(c.mutation_batch, 1);
    EXPECT_EQ(parse_fuzz_case(to_string(c)), c) << to_string(c);
  }
}

// Traces are drawn per-mutation in order from a dedicated stream, so a
// case whose `mutations` was truncated replays an exact prefix of the
// longer trace. This is what makes the shrinker's trace minimization sound
// (a shrunk repro is a sub-history, never a different history).
TEST(DynamicFuzzGenerator, TruncatedTraceIsAnExactPrefix) {
  FuzzConfig config;
  config.force_dynamic = true;
  for (std::int64_t i = 0; i < 25; ++i) {
    FuzzCase c = generate_case(case_seed_of(77, i), config);
    c.mutations = std::max(2, c.mutations);
    const Instance inst = materialize(c);
    const sim::MutationTrace full = trace_from_case(c, inst);
    FuzzCase shorter = c;
    shorter.mutations = c.mutations / 2;
    const sim::MutationTrace prefix = trace_from_case(shorter, inst);
    ASSERT_EQ(full.size(), static_cast<std::size_t>(c.mutations));
    ASSERT_EQ(prefix.size(), static_cast<std::size_t>(shorter.mutations));
    for (std::size_t j = 0; j < prefix.size(); ++j) {
      ASSERT_EQ(prefix[j], full[j]) << "case " << i << " entry " << j;
    }
  }
}

// A forced-dynamic campaign over the full oracle battery: every topology
// family, every trace, every invariant — clean. This is `ftc-fuzz run
// --dynamic` in miniature; failures print the one-line repro.
TEST(DynamicFuzzCampaign, CleanRunFindsNoFailures) {
  FuzzOptions options;
  options.seed = 5;
  options.cases = 150;
  options.max_failures = 3;
  options.config.force_dynamic = true;
  const FuzzReport report = run_fuzz(options);
  EXPECT_EQ(report.cases_run, 150);
  for (const auto& failure : report.failures) {
    ADD_FAILURE() << "case_seed=" << failure.case_seed << " "
                  << failure.violations.front().invariant << ": "
                  << failure.violations.front().detail
                  << "\n  repro: ftc-fuzz replay " << failure.case_seed
                  << " --dynamic";
  }
}

// Mutation testing for the dynamic path: a maintainer whose promotion wave
// is disabled must be caught quickly, and by a dynamic.* oracle — not by
// an incidental invariant.
TEST(DynamicFuzzMutation, MaintainerNoPromotionCaughtByDynamicOracle) {
  FuzzOptions options;
  options.seed = 1;
  options.cases = 300;
  options.mutation = Mutation::kMaintainerNoPromotion;
  options.max_failures = 1;
  options.config.force_dynamic = true;
  const FuzzReport report = run_fuzz(options);
  ASSERT_FALSE(report.failures.empty())
      << "maintainer-no-promotion survived 300 dynamic cases";
  const CaseFailure& failure = report.failures.front();
  const bool caught_by_oracle = std::any_of(
      failure.violations.begin(), failure.violations.end(),
      [](const Violation& v) { return v.invariant.starts_with("dynamic."); });
  EXPECT_TRUE(caught_by_oracle)
      << "caught only incidental invariants; first: "
      << failure.violations.front().invariant;
}

// The shrinker must minimize the TRACE as well as the topology: the shrunk
// repro keeps failing the same dynamic invariant with no more mutations
// (and usually far fewer) than the original.
TEST(DynamicFuzzShrink, MinimizesTraceNotJustTopology) {
  FuzzOptions options;
  options.seed = 1;
  options.cases = 300;
  options.mutation = Mutation::kMaintainerNoPromotion;
  options.max_failures = 1;
  options.config.force_dynamic = true;
  const FuzzReport report = run_fuzz(options);
  ASSERT_FALSE(report.failures.empty());
  const FuzzCase original = report.failures.front().fuzz_case;
  const std::string invariant =
      report.failures.front().violations.front().invariant;
  ASSERT_TRUE(original.run_dynamic);

  const FuzzCase shrunk =
      shrink_case(original, Mutation::kMaintainerNoPromotion);
  EXPECT_TRUE(shrunk.run_dynamic);  // cannot shed the failing dimension
  EXPECT_LE(shrunk.mutations, original.mutations);
  EXPECT_LE(shrunk.n, original.n);
  const Violations after =
      run_case(shrunk, Mutation::kMaintainerNoPromotion);
  ASSERT_FALSE(after.empty()) << "shrunk case no longer fails";
  EXPECT_EQ(after.front().invariant, invariant);
  EXPECT_EQ(parse_fuzz_case(to_string(shrunk)), shrunk);
}

}  // namespace
}  // namespace ftc::testing
