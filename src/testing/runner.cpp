#include "testing/runner.h"

#include <algorithm>
#include <utility>

namespace ftc::testing {

Violations run_case(const FuzzCase& c, Mutation mutation) {
  return check_case(c, mutation);
}

FuzzReport run_fuzz(const FuzzOptions& options) {
  FuzzReport report;
  for (std::int64_t i = 0; i < options.cases; ++i) {
    const std::uint64_t case_seed = case_seed_of(options.seed, i);
    const FuzzCase c = generate_case(case_seed, options.config);
    Violations violations = run_case(c, options.mutation);
    ++report.cases_run;
    if (!violations.empty()) {
      report.failures.push_back({case_seed, c, std::move(violations)});
      if (static_cast<std::int64_t>(report.failures.size()) >=
          options.max_failures) {
        break;
      }
    }
    if (options.progress_every > 0 && options.progress &&
        report.cases_run % options.progress_every == 0) {
      options.progress(report.cases_run,
                       static_cast<std::int64_t>(report.failures.size()));
    }
  }
  return report;
}

namespace {

/// The shrink predicate: the candidate still fails, and its leading
/// violation names the same invariant as the original failure (so the
/// minimization cannot wander onto a different bug).
bool still_fails(const FuzzCase& candidate, Mutation mutation,
                 const std::string& invariant) {
  const Violations v = run_case(candidate, mutation);
  return !v.empty() && v.front().invariant == invariant;
}

/// One pass of field reductions, cheapest-win first. Returns true if any
/// mutation was kept. `budget` counts down per candidate evaluation.
bool shrink_pass(FuzzCase& c, Mutation mutation, const std::string& invariant,
                 int& budget) {
  bool changed = false;
  auto try_mutation = [&](auto&& mutate) {
    if (budget <= 0) return;
    FuzzCase candidate = c;
    mutate(candidate);
    if (candidate == c) return;
    --budget;
    if (still_fails(candidate, mutation, invariant)) {
      c = candidate;
      changed = true;
    }
  };

  // Structural knobs off first: every disabled subsystem shrinks the
  // repro's moving parts even when it cannot shrink n.
  try_mutation([](FuzzCase& f) { f.fault_kind = FaultKind::kNone; });
  try_mutation([](FuzzCase& f) { f.loss = 0.0; });
  try_mutation([](FuzzCase& f) {
    f.dup = 0.0;
    f.reorder = 0.0;
    f.burst = 0.0;
    f.burst_in = 0.0;
    f.asym = 0.0;
  });
  try_mutation([](FuzzCase& f) { f.dup = 0.0; });
  try_mutation([](FuzzCase& f) { f.reorder = 0.0; });
  try_mutation([](FuzzCase& f) {
    f.burst = 0.0;
    f.burst_in = 0.0;
  });
  try_mutation([](FuzzCase& f) { f.asym = 0.0; });
  try_mutation([](FuzzCase& f) { f.run_lossy_sync = false; });
  try_mutation([](FuzzCase& f) { f.run_dynamic = false; });
  try_mutation([](FuzzCase& f) { f.threads = 1; });
  try_mutation([](FuzzCase& f) { f.run_obs = false; });
  try_mutation([](FuzzCase& f) { f.run_async = false; });
  try_mutation([](FuzzCase& f) { f.run_small_oracles = false; });
  try_mutation([](FuzzCase& f) { f.run_differential = false; });
  try_mutation([](FuzzCase& f) { f.max_delay = 1; });
  try_mutation([](FuzzCase& f) { f.uniform_demand = true; });

  // Size reductions: halve toward the floor, then creep linearly.
  try_mutation([](FuzzCase& f) { f.n = std::max<graph::NodeId>(3, f.n / 2); });
  try_mutation([](FuzzCase& f) { f.n = std::max<graph::NodeId>(3, f.n - 1); });
  try_mutation([](FuzzCase& f) { f.t = std::max(1, f.t / 2); });
  try_mutation([](FuzzCase& f) { f.t = std::max(1, f.t - 1); });
  try_mutation([](FuzzCase& f) { f.k = std::max(1, f.k - 1); });
  try_mutation([](FuzzCase& f) { f.aux = std::max<graph::NodeId>(1, f.aux / 2); });
  try_mutation([](FuzzCase& f) {
    f.horizon = std::max(kFuzzMinHorizon, f.horizon / 2);
  });
  try_mutation([](FuzzCase& f) {
    f.fault_count = std::max<graph::NodeId>(1, f.fault_count / 2);
  });
  try_mutation([](FuzzCase& f) { f.fault_rate = 0.0; });
  try_mutation([](FuzzCase& f) { f.fault_rate /= 2.0; });
  // Trace minimization: because traces are drawn per-mutation in order,
  // reducing `mutations` replays an exact prefix — a smaller trace, not a
  // different one. Halve first, then creep, then collapse batching.
  try_mutation(
      [](FuzzCase& f) { f.mutations = std::max<std::int32_t>(1, f.mutations / 2); });
  try_mutation(
      [](FuzzCase& f) { f.mutations = std::max<std::int32_t>(1, f.mutations - 1); });
  try_mutation([](FuzzCase& f) { f.mutation_batch = 1; });
  return changed;
}

}  // namespace

FuzzCase shrink_case(const FuzzCase& failing, Mutation mutation,
                     int max_steps) {
  const Violations initial = run_case(failing, mutation);
  if (initial.empty()) return failing;
  const std::string invariant = initial.front().invariant;

  FuzzCase current = failing;
  int budget = max_steps;
  while (budget > 0 && shrink_pass(current, mutation, invariant, budget)) {
  }
  return current;
}

}  // namespace ftc::testing
