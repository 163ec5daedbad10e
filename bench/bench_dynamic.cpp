// DYNAMIC — incremental maintenance vs full re-solve under live churn.
//
// The dynamic-clustering claim (DESIGN.md §13): after a single mutation,
// the IncrementalMaintainer re-examines only the two-hop ball around the
// damage while a full greedy re-solve re-decides every active node. This
// bench replays seeded single-mutation batches (join / leave / move on a
// UDG deployment) down both paths and reports
//
//   * mutations/sec for the incremental path (world delta + maintainer):
//     the mutations are timed in chunks of kChunk and the rate is the
//     median chunk's, so one preempted or cold chunk does not move it; its
//     heap allocations per mutation (JSON allocs_per_mutation) cover all
//     mutations,
//   * full re-solves/sec for the rebuild path: each timed re-solve is the
//     mutation, the CSR snapshot of the live topology, its effective
//     demands and greedy_kmds — the rebuild counterpart of the incremental
//     timer's mutation, world delta and maintainer; neither timer includes
//     a coverage check,
//   * re-clustered nodes per mutation for both: ball2 (nodes the
//     maintainer re-examined) vs the active node count (nodes the re-solve
//     re-decided), and the ratio — the ≥10x acceptance bar at n=1e5.
//
// Correctness is checked outside both timers: every re-solved set must
// fully cover its live effective demands, and so must the maintainer's
// final membership — a perf number is never reported for a broken path.
//
// --sizes=10000,100000   deployment sizes
// --degree=8             target average UDG degree
// --k=2                  redundancy target
// --mutations=2000       single-mutation batches per size
// --resolves=40          full re-solves measured (they are the slow side)
// --json=BENCH_dynamic.json  machine-readable output ("" = none)
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "algo/baseline/greedy.h"
#include "algo/extensions/maintainer.h"
#include "bench_common.h"
#include "domination/domination.h"
#include "geom/udg.h"
#include "graph/graph.h"
#include "sim/mutation.h"
#include "util/cli.h"
#include "util/rng.h"

namespace {

using namespace ftc;
using domination::Demands;
using graph::NodeId;

constexpr std::uint64_t kGraphSeed = 42;
constexpr std::uint64_t kChurnSeed = 7;
/// Mutations per timed chunk of the incremental path (the last chunk may
/// be shorter).
constexpr int kChunk = 50;

bool g_all_ok = true;

void require(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "FATAL: " << what << "\n";
    g_all_ok = false;
  }
}

/// Effective demands on the live topology: active nodes demand
/// min(k, deg+1) (the clamp_demands convention), inactive ones nothing.
Demands effective_demands(const sim::DynamicWorld& world, std::int32_t k) {
  Demands d(static_cast<std::size_t>(world.n()), 0);
  for (NodeId v = 0; v < world.n(); ++v) {
    if (!world.active(v)) continue;
    const auto deg = static_cast<std::int32_t>(world.graph().degree(v));
    d[static_cast<std::size_t>(v)] = std::min(k, deg + 1);
  }
  return d;
}

/// Draws the next churn mutation: 25% join / 35% leave / 40% move, with
/// join/move positions jittered around a live node so density stays
/// realistic as the deployment evolves.
sim::Mutation next_mutation(const sim::DynamicWorld& world, double radius,
                            util::Rng& rng) {
  sim::Mutation m;
  const auto target =
      static_cast<NodeId>(rng.index(static_cast<std::size_t>(world.n())));
  const auto& anchor_pos =
      world.udg()->positions()[static_cast<std::size_t>(target)];
  const double u = rng.uniform01();
  if (u < 0.25) {
    m.kind = sim::MutationKind::kJoin;
    m.x = anchor_pos.x + rng.uniform(-radius, radius);
    m.y = anchor_pos.y + rng.uniform(-radius, radius);
  } else if (u < 0.60) {
    m.kind = sim::MutationKind::kLeave;
    m.node = target;
  } else {
    m.kind = sim::MutationKind::kMove;
    m.node = target;
    m.x = anchor_pos.x + rng.uniform(-radius, radius);
    m.y = anchor_pos.y + rng.uniform(-radius, radius);
  }
  return m;
}

}  // namespace

int run(const ftc::util::Args& args) {
  const auto sizes =
      args.get_int_list("sizes", {10'000, 100'000}, 2, INT32_MAX);
  const double degree = args.get_double("degree", 8.0);
  const auto k = static_cast<std::int32_t>(args.get_int("k", 2, 1, INT32_MAX));
  const auto mutations =
      static_cast<int>(args.get_int("mutations", 2000, 1, INT32_MAX));
  const int resolves =
      static_cast<int>(args.get_int("resolves", 40, 1, INT32_MAX));
  const std::string json_path = args.get_string("json", "BENCH_dynamic.json");

  bench::Output out({"n", "mutations", "inc_mut/sec", "resolve/sec",
                     "speedup", "ball2/mut", "changed/mut", "ratio"},
                    args);
  std::vector<std::string> json_rows;

  for (const long long n_ll : sizes) {
    const auto n = static_cast<NodeId>(n_ll);
    util::Rng graph_rng(kGraphSeed);
    const geom::UnitDiskGraph udg =
        geom::uniform_udg_with_degree(n, degree, graph_rng);
    const Demands demands =
        domination::clamp_demands(udg.graph, domination::uniform_demands(n, k));
    const std::vector<NodeId> base = algo::greedy_kmds(udg.graph, demands).set;

    // ---- incremental path: world delta + maintainer per mutation --------
    sim::DynamicWorld world(udg);
    algo::IncrementalMaintainer maintainer(n, base, {.k = k});
    util::Rng churn(kChurnSeed);
    std::int64_t sum_ball2 = 0;
    std::int64_t sum_changed = 0;
    std::vector<double> chunk_rates;  // reserved outside the alloc count
    chunk_rates.reserve(
        static_cast<std::size_t>((mutations + kChunk - 1) / kChunk));
    const std::uint64_t inc_allocs0 = bench::alloc_counts().count;
    bench::WallClock inc_clock;
    for (int i = 0; i < mutations; ++i) {
      const sim::Mutation m = next_mutation(world, udg.radius, churn);
      const sim::AppliedMutation am = world.apply(m);
      const algo::MaintainResult r =
          maintainer.apply_batch(world.graph(), world.active_flags(), {&am, 1});
      sum_ball2 += r.ball2;
      sum_changed += static_cast<std::int64_t>(r.changed.size());
      if (!r.fully_satisfied) {  // no message string in the timed loop
        require(false, "maintainer left a deficiency at n=" +
                           std::to_string(n) + " mutation " +
                           std::to_string(i));
      }
      if ((i + 1) % kChunk == 0 || i + 1 == mutations) {
        const int done = (i % kChunk) + 1;
        chunk_rates.push_back(done / inc_clock.restart());
      }
    }
    std::sort(chunk_rates.begin(), chunk_rates.end());
    const double inc_per_sec = chunk_rates[chunk_rates.size() / 2];
    const double allocs_per_mutation =
        static_cast<double>(bench::alloc_counts().count - inc_allocs0) /
        mutations;
    require(domination::is_k_dominating(world.snapshot(),
                                        maintainer.member_set(),
                                        effective_demands(world, k)),
            "incremental membership lost coverage at n=" + std::to_string(n));

    // ---- rebuild path: freeze + full greedy re-solve per mutation -------
    sim::DynamicWorld world2(udg);
    util::Rng churn2(kChurnSeed);
    const int full_runs = std::min(resolves, mutations);
    std::int64_t sum_active = 0;
    std::vector<NodeId> resolved;
    double full_seconds = 0.0;
    for (int i = 0; i < full_runs; ++i) {
      const bench::WallClock full_clock;
      const sim::Mutation m = next_mutation(world2, udg.radius, churn2);
      (void)world2.apply(m);
      const graph::Graph live = world2.snapshot();
      const Demands eff = effective_demands(world2, k);
      resolved = algo::greedy_kmds(live, eff).set;
      full_seconds += full_clock.seconds();
      sum_active += world2.active_count();
      require(domination::is_k_dominating(live, resolved, eff),
              "full re-solve lost coverage at n=" + std::to_string(n));
    }
    const double full_per_sec = full_runs / full_seconds;

    const double inc_reclustered =
        static_cast<double>(sum_ball2) / mutations;
    const double changed_per_mut =
        static_cast<double>(sum_changed) / mutations;
    const double full_reclustered =
        static_cast<double>(sum_active) / full_runs;
    const double ratio = full_reclustered / std::max(1.0, inc_reclustered);
    const double speedup = inc_per_sec / full_per_sec;

    out.row({util::fmt(static_cast<long long>(n)), util::fmt(mutations),
             util::fmt(inc_per_sec, 1), util::fmt(full_per_sec, 2),
             util::fmt(speedup, 1), util::fmt(inc_reclustered, 1),
             util::fmt(changed_per_mut, 2), util::fmt(ratio, 1)});
    json_rows.push_back(
        std::string("    {\"n\": ") + std::to_string(n) +
        ", \"mutations\": " + std::to_string(mutations) +
        ", \"full_resolves\": " + std::to_string(full_runs) +
        ", \"chunk_mutations\": " + std::to_string(kChunk) +
        ", \"inc_mutations_per_sec\": " + util::fmt(inc_per_sec, 3) +
        ", \"allocs_per_mutation\": " + util::fmt(allocs_per_mutation, 3) +
        ", \"full_resolves_per_sec\": " + util::fmt(full_per_sec, 3) +
        ", \"speedup_vs_resolve\": " + util::fmt(speedup, 3) +
        ", \"inc_reclustered_per_mutation\": " + util::fmt(inc_reclustered, 3) +
        ", \"inc_changed_per_mutation\": " + util::fmt(changed_per_mut, 3) +
        ", \"full_reclustered_per_mutation\": " + util::fmt(full_reclustered, 3) +
        ", \"recluster_ratio\": " + util::fmt(ratio, 3) + "}");
  }

  out.print("DYNAMIC — incremental maintenance vs full re-solve (UDG, avg "
            "degree " + util::fmt(degree, 1) + ", k=" + util::fmt(k) + ")");

  bench::write_bench_json(
      json_path, "dynamic", "udg_uniform_churn",
      {{"degree", util::fmt(degree, 1)}, {"k", std::to_string(k)}}, {},
      json_rows);
  return g_all_ok ? 0 : 1;
}

int main(int argc, char** argv) {
  return ftc::util::run_cli(argc, argv, run);
}
