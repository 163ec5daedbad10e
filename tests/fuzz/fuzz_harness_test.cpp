// Tests for the adversarial fuzzing harness itself (DESIGN.md §8): the
// case generator's determinism and serialization, a clean campaign over the
// real stack, mutation-testing (the harness must catch known injected bugs
// within a bounded number of cases), and the shrinker's contract.
#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "algo/lp/lp_kmds.h"
#include "domination/domination.h"
#include "testing/generators.h"
#include "testing/invariants.h"
#include "testing/mutants.h"
#include "testing/runner.h"

namespace ftc::testing {
namespace {

TEST(FuzzGenerator, CaseIsPureFunctionOfSeed) {
  const FuzzConfig config;
  for (std::int64_t i = 0; i < 64; ++i) {
    const std::uint64_t seed = case_seed_of(42, i);
    EXPECT_EQ(generate_case(seed, config), generate_case(seed, config));
  }
  // Distinct indices yield distinct seeds (splitmix dispersion).
  EXPECT_NE(case_seed_of(42, 0), case_seed_of(42, 1));
  EXPECT_NE(case_seed_of(42, 0), case_seed_of(43, 0));
}

TEST(FuzzGenerator, MaterializeRespectsBounds) {
  FuzzConfig config;
  config.max_n = 40;
  for (std::int64_t i = 0; i < 200; ++i) {
    const FuzzCase c = generate_case(case_seed_of(7, i), config);
    ASSERT_GE(c.n, kFuzzMinN);
    ASSERT_LE(c.n, config.max_n);
    ASSERT_GE(c.k, 1);
    ASSERT_LE(c.k, kFuzzMaxK);
    ASSERT_GE(c.t, 1);
    ASSERT_LE(c.t, kFuzzMaxT);
    ASSERT_GE(c.loss, 0.0);
    ASSERT_LE(c.loss, kFuzzMaxLoss);
    const Instance inst = materialize(c);
    const auto& g = inst.graph();
    ASSERT_GT(g.n(), 0);
    ASSERT_EQ(inst.demands.size(), static_cast<std::size_t>(g.n()));
    // Demands were clamped to feasibility: k_i <= |N[i]|.
    for (graph::NodeId v = 0; v < g.n(); ++v) {
      ASSERT_GE(inst.demands[static_cast<std::size_t>(v)], 1);
      ASSERT_LE(inst.demands[static_cast<std::size_t>(v)],
                static_cast<std::int32_t>(g.degree(v)) + 1);
    }
  }
}

TEST(FuzzGenerator, MaterializeIsDeterministic) {
  const FuzzCase c = generate_case(case_seed_of(11, 3));
  const Instance a = materialize(c);
  const Instance b = materialize(c);
  ASSERT_EQ(a.graph().n(), b.graph().n());
  ASSERT_EQ(a.graph().m(), b.graph().m());
  EXPECT_EQ(a.demands, b.demands);
  for (graph::NodeId v = 0; v < a.graph().n(); ++v) {
    const auto na = a.graph().neighbors(v);
    const auto nb = b.graph().neighbors(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()));
  }
}

TEST(FuzzGenerator, SerializationRoundTrips) {
  for (std::int64_t i = 0; i < 100; ++i) {
    const FuzzCase c = generate_case(case_seed_of(3, i));
    const FuzzCase parsed = parse_fuzz_case(to_string(c));
    EXPECT_EQ(parsed, c) << to_string(c);
  }
}

TEST(FuzzGenerator, ParseRejectsMalformedInput) {
  const std::string good = to_string(generate_case(case_seed_of(1, 0)));
  EXPECT_THROW((void)parse_fuzz_case(""), std::invalid_argument);
  EXPECT_THROW((void)parse_fuzz_case("case_seed=1"), std::invalid_argument);
  EXPECT_THROW((void)parse_fuzz_case(good + " bogus_key=1"),
               std::invalid_argument);
  EXPECT_THROW((void)parse_fuzz_case(good + " n"), std::invalid_argument);
  std::string bad_value = good;
  bad_value.replace(bad_value.find("n="), 3, "n=x ");
  EXPECT_THROW((void)parse_fuzz_case(bad_value), std::invalid_argument);
}

// Every integer field is ranged before narrowing: an out-of-domain value
// throws instead of wrapping or reaching the engine. Parse only — none of
// these cases is run.
TEST(FuzzGenerator, ParseRangesEveryIntegerField) {
  const std::string good = to_string(generate_case(case_seed_of(1, 0)));
  const auto with = [&good](const std::string& key, const std::string& value) {
    std::string line = " " + good;
    const auto at = line.find(" " + key + "=");
    EXPECT_NE(at, std::string::npos) << key;
    const auto begin = at + key.size() + 2;
    line.replace(begin, line.find(' ', begin) - begin, value);
    return line;
  };
  const std::pair<const char*, const char*> rejected[] = {
      {"n", "0"},
      {"n", "4294967297"},
      {"k", "4294967297"},
      {"k", "5"},
      {"t", "0"},
      {"t", "5"},
      {"aux", "7"},
      {"threads", "0"},
      {"threads", "100000"},
      {"max_delay", "0"},
      {"max_delay", "2147483648"},
      {"reorder_delay", "0"},
      {"reorder_delay", "2147483648"},
      {"fault_count", "-1"},
      {"fault_count", "2147483648"},
      {"horizon", "7"},
      {"horizon", "25"},
      {"mutations", "-1"},
      {"mutations", "21"},
      {"mutation_batch", "0"},
      {"mutation_batch", "5"},
      {"run_async", "2"},
      {"case_seed", "-1"},
      {"graph_seed", "18446744073709551616"},
      {"p", "1e999"},
  };
  for (const auto& [key, value] : rejected) {
    EXPECT_THROW((void)parse_fuzz_case(with(key, value)),
                 std::invalid_argument)
        << key << "=" << value;
  }
  // The bounds themselves parse.
  const FuzzCase widest = parse_fuzz_case(
      with("threads", std::to_string(kFuzzMaxThreads)));
  EXPECT_EQ(widest.threads, kFuzzMaxThreads);
  EXPECT_EQ(parse_fuzz_case(with("max_delay", "2147483647")).max_delay,
            INT32_MAX);
}

// A short clean campaign over the real stack: every invariant must hold.
// This is the same battery `ftc-fuzz run` executes, so a failure here comes
// with a one-line repro in the failure message.
TEST(FuzzCampaign, CleanRunFindsNoFailures) {
  FuzzOptions options;
  options.seed = 1;
  options.cases = 150;
  options.max_failures = 3;
  const FuzzReport report = run_fuzz(options);
  EXPECT_EQ(report.cases_run, 150);
  for (const auto& failure : report.failures) {
    ADD_FAILURE() << "case_seed=" << failure.case_seed << " "
                  << failure.violations.front().invariant << ": "
                  << failure.violations.front().detail
                  << "\n  repro: ftc-fuzz replay " << failure.case_seed;
  }
}

// Three lossy cases once failed a transport-convergence check (seed 7: the
// first two, seed 3: the third). They draw the lossy synchronizer check,
// whose outputs, pulse counts, virtual-time budget, frame size and width
// equality must all hold.
TEST(FuzzCampaign, PinnedLossyCasesRunTheSynchronizerCheckClean) {
  FuzzConfig lossy;
  lossy.force_lossy = true;
  for (const std::uint64_t seed :
       {641971966785604671ULL, 7736677973659092990ULL,
        13682088805634673402ULL}) {
    const FuzzCase c = generate_case(seed, lossy);
    EXPECT_TRUE(c.run_lossy_sync) << seed;
    EXPECT_GT(c.burst, 0.0) << seed;
    for (const Violation& v : run_case(c)) {
      ADD_FAILURE() << "case_seed=" << seed << " " << v.invariant << ": "
                    << v.detail;
    }
  }
}

TEST(FuzzCampaign, ReplayIsBitForBit) {
  for (std::int64_t i = 0; i < 25; ++i) {
    const FuzzCase c = generate_case(case_seed_of(99, i));
    const Violations a = run_case(c);
    const Violations b = run_case(c);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].invariant, b[j].invariant);
      EXPECT_EQ(a[j].detail, b[j].detail);
    }
  }
}

// The kNone "mutant" must reproduce Algorithm 2 exactly — this is what makes
// the injected bugs the *only* difference between mutant and real pipeline.
TEST(FuzzMutation, IdentityMutantMatchesRealRounding) {
  for (std::int64_t i = 0; i < 40; ++i) {
    const FuzzCase c = generate_case(case_seed_of(5, i));
    const Instance inst = materialize(c);
    const auto& g = inst.graph();
    algo::LpOptions lp_options;
    lp_options.t = c.t;
    const auto lp = algo::solve_fractional_kmds(g, inst.demands, lp_options);
    const auto real =
        algo::round_fractional(g, lp.primal, inst.demands, c.algo_seed);
    const auto mutant = round_fractional_mutant(g, lp.primal, inst.demands,
                                                c.algo_seed, Mutation::kNone);
    EXPECT_EQ(mutant.set, real.set);
    EXPECT_EQ(mutant.chosen_by_coin, real.chosen_by_coin);
    EXPECT_EQ(mutant.chosen_by_request, real.chosen_by_request);
  }
}

struct MutationCatchParam {
  Mutation mutation;
  std::int64_t budget;  ///< cases within which the harness must fire
};

class FuzzMutationCatch : public ::testing::TestWithParam<MutationCatchParam> {
};

// Mutation-testing sanity: a harness that cannot catch a deliberately broken
// rounding variant is broken itself. Each known mutant must be flagged
// within a bounded number of cases, and the leading violation must be a
// coverage / differential / oracle catch (not an incidental one).
TEST_P(FuzzMutationCatch, CaughtWithinBudget) {
  const MutationCatchParam param = GetParam();
  FuzzOptions options;
  options.seed = 1;
  options.cases = param.budget;
  options.mutation = param.mutation;
  options.max_failures = 1;
  const FuzzReport report = run_fuzz(options);
  ASSERT_FALSE(report.failures.empty())
      << mutation_name(param.mutation) << " survived " << param.budget
      << " cases";
  const CaseFailure& failure = report.failures.front();
  const bool meaningful = std::any_of(
      failure.violations.begin(), failure.violations.end(),
      [](const Violation& v) {
        return v.invariant.starts_with("rounding.") ||
               v.invariant.starts_with("oracle.") ||
               v.invariant.starts_with("engine.");
      });
  EXPECT_TRUE(meaningful) << "caught only incidental invariants; first: "
                          << failure.violations.front().invariant;
}

INSTANTIATE_TEST_SUITE_P(
    KnownMutants, FuzzMutationCatch,
    ::testing::Values(
        MutationCatchParam{Mutation::kRoundingUnderRequest, 500},
        MutationCatchParam{Mutation::kRoundingDropLastCoin, 500}),
    [](const ::testing::TestParamInfo<MutationCatchParam>& info) {
      std::string name = mutation_name(info.param.mutation);
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// The synchronizer builds its own delay channel and never reads the case's
// loss, so its check runs on lossy cases too: a lossy run_async case whose
// rounding the mutant changes must report the synchronized run's mismatch.
TEST(FuzzMutation, SynchronizerCheckRunsOnLossyCases) {
  FuzzConfig config;
  config.force_lossy = true;
  for (std::int64_t i = 0; i < 200; ++i) {
    const FuzzCase c = generate_case(case_seed_of(1, i), config);
    if (!c.run_async) continue;
    ASSERT_GT(c.loss, 0.0);
    const Instance inst = materialize(c);
    const auto& g = inst.graph();
    algo::LpOptions lp_options;
    lp_options.t = c.t;
    const auto lp = algo::solve_fractional_kmds(g, inst.demands, lp_options);
    const auto real =
        algo::round_fractional(g, lp.primal, inst.demands, c.algo_seed);
    const auto mutant = round_fractional_mutant(
        g, lp.primal, inst.demands, c.algo_seed,
        Mutation::kRoundingUnderRequest);
    if (mutant.set == real.set) continue;
    const Violations found = run_case(c, Mutation::kRoundingUnderRequest);
    EXPECT_TRUE(std::any_of(found.begin(), found.end(),
                            [](const Violation& v) {
                              return v.invariant == "engine.async_schedule";
                            }))
        << "case " << to_string(c);
    return;
  }
  FAIL() << "no lossy run_async case the mutant changes in 200 cases";
}

TEST(FuzzShrink, ProducesSmallerCaseFailingSameInvariant) {
  // Find a failing case under the under-request mutant, then shrink it.
  FuzzOptions options;
  options.seed = 1;
  options.cases = 500;
  options.mutation = Mutation::kRoundingUnderRequest;
  options.max_failures = 1;
  const FuzzReport report = run_fuzz(options);
  ASSERT_FALSE(report.failures.empty());
  const FuzzCase original = report.failures.front().fuzz_case;
  const std::string invariant =
      report.failures.front().violations.front().invariant;

  const FuzzCase shrunk =
      shrink_case(original, Mutation::kRoundingUnderRequest);
  EXPECT_LE(shrunk.n, original.n);
  const Violations after = run_case(shrunk, Mutation::kRoundingUnderRequest);
  ASSERT_FALSE(after.empty()) << "shrunk case no longer fails";
  EXPECT_EQ(after.front().invariant, invariant);
  // The shrunk case serializes and round-trips like any other case.
  EXPECT_EQ(parse_fuzz_case(to_string(shrunk)), shrunk);
}

TEST(FuzzShrink, PassingCaseIsReturnedUnchanged) {
  const FuzzCase c = generate_case(case_seed_of(1, 0));
  ASSERT_TRUE(run_case(c).empty());
  EXPECT_EQ(shrink_case(c), c);
}

TEST(FuzzMutation, ParseNamesRoundTrip) {
  for (const Mutation m : {Mutation::kNone, Mutation::kRoundingUnderRequest,
                           Mutation::kRoundingDropLastCoin}) {
    EXPECT_EQ(parse_mutation(mutation_name(m)), m);
  }
  EXPECT_THROW((void)parse_mutation("no-such-mutation"),
               std::invalid_argument);
}

}  // namespace
}  // namespace ftc::testing
