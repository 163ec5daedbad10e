// ftc-fuzz — adversarial property-fuzzing driver for the k-MDS stack
// (DESIGN.md §8).
//
//   ftc-fuzz run    --cases=N --seed=S [--mutation=M] [--max-failures=F]
//                   [--max-n=N] [--progress=K] [--lossy] [--dynamic]
//   ftc-fuzz replay <case-seed> | --case="<serialized case>" [--mutation=M]
//   ftc-fuzz shrink <case-seed> | --case="<serialized case>" [--mutation=M]
//                   [--max-steps=B]
//   ftc-fuzz trace  <case-seed> | --case="<serialized case>"
//
// `run` fuzzes N seed-derived cases through the invariant library and prints
// a one-line deterministic repro for every failure. `replay` re-executes a
// single case bit for bit from its seed (or from a full serialized case, as
// emitted by run/shrink). `shrink` minimizes a failing case to the smallest
// case that still breaks the same invariant — including the mutation trace,
// whose prefix-sound generation lets the shrinker drop trailing mutations.
// `trace` prints the materialized mutation trace of a dynamic case.
// --dynamic forces every generated case to carry a mutation trace (the
// dynamic-fuzz campaign mode check.sh drives under ASan).
//
// Exit codes: 0 = all invariants held, 1 = violations found, 2 = usage error.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>

#include "sim/mutation.h"
#include "testing/dynamic.h"
#include "testing/generators.h"
#include "testing/invariants.h"
#include "testing/mutants.h"
#include "testing/runner.h"
#include "util/cli.h"

namespace {

using namespace ftc;

int usage(const char* program) {
  std::fprintf(stderr,
               "usage: %s run    [--cases=N] [--seed=S] [--mutation=M]\n"
               "                 [--max-failures=F] [--max-n=N] [--progress=K]\n"
               "                 [--lossy] [--dynamic]\n"
               "       %s replay <case-seed> | --case=\"...\" [--mutation=M]\n"
               "       %s shrink <case-seed> | --case=\"...\" [--mutation=M]\n"
               "                 [--max-steps=B]\n"
               "       %s trace  <case-seed> | --case=\"...\"\n"
               "mutations: none, rounding-under-request, rounding-drop-last-coin,\n"
               "           maintainer-no-promotion\n",
               program, program, program, program);
  return 2;
}

void print_violations(const testing::FuzzCase& c,
                      const testing::Violations& violations,
                      const testing::FuzzConfig& config = {}) {
  for (const auto& v : violations) {
    std::printf("  violation %-24s %s\n", v.invariant.c_str(),
                v.detail.c_str());
  }
  // --lossy / --dynamic change what a bare seed generates, so the repro
  // carries them.
  std::printf("  repro: ftc-fuzz replay %llu%s%s\n",
              static_cast<unsigned long long>(c.case_seed),
              config.force_lossy ? " --lossy" : "",
              config.force_dynamic ? " --dynamic" : "");
  std::printf("  case:  %s\n", testing::to_string(c).c_str());
}

/// Resolves the case for replay/shrink: either a positional case seed or a
/// full serialized case via --case= (which wins, so shrunk cases — whose
/// fields no longer match their seed — stay replayable).
testing::FuzzCase resolve_case(const util::Args& args,
                               const testing::FuzzConfig& config) {
  if (const auto line = args.get("case")) {
    return testing::parse_fuzz_case(*line);
  }
  if (args.positional().size() < 2) {
    throw std::invalid_argument("need a <case-seed> or --case=\"...\"");
  }
  const std::uint64_t seed = std::stoull(args.positional()[1]);
  return testing::generate_case(seed, config);
}

int cmd_run(const util::Args& args, const testing::FuzzConfig& config,
            testing::Mutation mutation) {
  testing::FuzzOptions options;
  options.seed = args.get_u64("seed", 1);
  options.cases =
      args.get_int("cases", 1000, 1, std::numeric_limits<long long>::max());
  options.config = config;
  options.mutation = mutation;
  options.max_failures =
      args.get_int("max-failures", 1, 1, std::numeric_limits<long long>::max());
  options.progress_every =
      args.get_int("progress", 0, 0, std::numeric_limits<long long>::max());
  if (options.progress_every > 0) {
    options.progress = [](std::int64_t cases_run, std::int64_t failures) {
      std::printf("... %lld cases, %lld failure(s)\n",
                  static_cast<long long>(cases_run),
                  static_cast<long long>(failures));
      std::fflush(stdout);
    };
  }

  const testing::FuzzReport report = testing::run_fuzz(options);
  for (const auto& failure : report.failures) {
    std::printf("FAIL case_seed=%llu (root seed %llu)\n",
                static_cast<unsigned long long>(failure.case_seed),
                static_cast<unsigned long long>(options.seed));
    print_violations(failure.fuzz_case, failure.violations, config);
  }
  std::printf("%s: %lld cases, %zu failure(s), seed %llu%s%s\n",
              report.ok() ? "OK" : "FAILED",
              static_cast<long long>(report.cases_run),
              report.failures.size(),
              static_cast<unsigned long long>(options.seed),
              mutation == testing::Mutation::kNone ? "" : ", mutation ",
              mutation == testing::Mutation::kNone
                  ? ""
                  : testing::mutation_name(mutation));
  return report.ok() ? 0 : 1;
}

int cmd_replay(const util::Args& args, const testing::FuzzConfig& config,
               testing::Mutation mutation) {
  const testing::FuzzCase c = resolve_case(args, config);
  std::printf("case: %s\n", testing::to_string(c).c_str());
  const testing::Violations violations = testing::run_case(c, mutation);
  if (violations.empty()) {
    std::printf("OK: all invariants held\n");
    return 0;
  }
  std::printf("FAIL case_seed=%llu\n",
              static_cast<unsigned long long>(c.case_seed));
  print_violations(c, violations);
  return 1;
}

int cmd_shrink(const util::Args& args, const testing::FuzzConfig& config,
               testing::Mutation mutation) {
  const testing::FuzzCase c = resolve_case(args, config);
  const testing::Violations original = testing::run_case(c, mutation);
  if (original.empty()) {
    std::printf("case does not fail; nothing to shrink\n");
    std::printf("  case: %s\n", testing::to_string(c).c_str());
    return 0;
  }
  const int max_steps =
      static_cast<int>(args.get_int("max-steps", 400, 0, INT32_MAX));
  std::printf("shrinking (leading invariant: %s, budget %d)...\n",
              original.front().invariant.c_str(), max_steps);
  const testing::FuzzCase shrunk = testing::shrink_case(c, mutation, max_steps);
  const testing::Violations after = testing::run_case(shrunk, mutation);
  std::printf("shrunk: n=%d -> n=%d\n", c.n, shrunk.n);
  print_violations(shrunk, after);
  std::printf("replay with: ftc-fuzz replay --case=\"%s\"\n",
              testing::to_string(shrunk).c_str());
  return 1;
}

int cmd_trace(const util::Args& args, const testing::FuzzConfig& config) {
  const testing::FuzzCase c = resolve_case(args, config);
  std::printf("case: %s\n", testing::to_string(c).c_str());
  if (!c.run_dynamic || c.mutations <= 0) {
    std::printf("case carries no mutation trace (run_dynamic=%d mutations=%d)\n",
                c.run_dynamic ? 1 : 0, c.mutations);
    return 0;
  }
  const testing::Instance inst = testing::materialize(c);
  const sim::MutationTrace trace = testing::trace_from_case(c, inst);
  std::printf("trace (%zu mutations, batch=%d): %s\n", trace.size(),
              c.mutation_batch, sim::to_string(trace).c_str());
  for (const sim::TimedMutation& tm : trace) {
    std::printf("  round %-4lld %-5s node=%d peer=%d x=%g y=%g\n",
                static_cast<long long>(tm.round),
                sim::mutation_kind_name(tm.m.kind), tm.m.node, tm.m.peer,
                tm.m.x, tm.m.y);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  if (args.positional().empty()) return usage(argv[0]);
  const std::string& command = args.positional()[0];

  try {
    testing::FuzzConfig config;
    config.max_n = static_cast<graph::NodeId>(
        args.get_int("max-n", config.max_n, testing::kFuzzMinN, INT32_MAX));
    config.force_lossy = args.get_bool("lossy", false);
    config.force_dynamic = args.get_bool("dynamic", false);
    const testing::Mutation mutation =
        testing::parse_mutation(args.get_string("mutation", "none"));

    if (command == "run") return cmd_run(args, config, mutation);
    if (command == "replay") return cmd_replay(args, config, mutation);
    if (command == "shrink") return cmd_shrink(args, config, mutation);
    if (command == "trace") return cmd_trace(args, config);
    std::fprintf(stderr, "unknown command: %s\n", command.c_str());
    return usage(argv[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
