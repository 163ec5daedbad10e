// Dynamic-path interplay: explicit node_leave churn driven through the
// host-side IncrementalMaintainer while the SAME departures hit a live
// SyncNetwork running RepairProcess. The test pins the two contracts that
// let the two repair paths run side by side: both converge to full live
// coverage, and both are idempotent once coverage is restored (no
// membership drift while the network keeps running, re-applied no-op
// batches change nothing). A second test runs the whole dynamic path —
// churn, maintainer, repair protocol, observability — at thread widths
// {1,2,4,8} and requires bitwise-identical traces and registries
// (DESIGN.md §7/§13).
#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algo/baseline/greedy.h"
#include "algo/extensions/maintainer.h"
#include "algo/extensions/repair_process.h"
#include "domination/domination.h"
#include "geom/udg.h"
#include "graph/graph.h"
#include "obs/plane.h"
#include "sim/mutation.h"
#include "sim/network.h"
#include "util/rng.h"

namespace ftc::algo {
namespace {

using domination::clamp_demands;
using domination::Demands;
using domination::uniform_demands;
using graph::Graph;
using graph::NodeId;

/// Departure schedule shared by the network (schedule_crash) and the
/// maintainer (node_leave batches): node -> round it leaves.
struct Departure {
  NodeId node;
  std::int64_t round;
};

/// Effective demand vector for a mutated world: inactive nodes demand
/// nothing, active ones demand min(k, deg+1) — the clamp_demands
/// convention applied to the live topology.
Demands effective_demands(const sim::DynamicWorld& world, std::int32_t k) {
  Demands d(static_cast<std::size_t>(world.n()), 0);
  for (NodeId v = 0; v < world.n(); ++v) {
    if (!world.active(v)) continue;
    const auto deg =
        static_cast<std::int32_t>(world.graph().degree(v));
    d[static_cast<std::size_t>(v)] = std::min(k, deg + 1);
  }
  return d;
}

struct InterplayRun {
  std::vector<NodeId> net_members;         ///< live RepairProcess members
  std::vector<NodeId> maintainer_members;  ///< host-side maintainer set
  std::int64_t joins = 0;                  ///< promotions by live nodes
  std::int64_t unsatisfied = 0;
  std::string jsonl;
  std::string metrics_json;
};

/// One seeded end-to-end run of the dynamic path at the given width.
InterplayRun run_interplay(int threads, bool with_perf) {
  util::Rng rng(777);
  const geom::UnitDiskGraph udg = geom::uniform_udg_with_degree(120, 9.0, rng);
  const Graph& g = udg.graph;
  const std::int32_t k = 2;
  const Demands demands = clamp_demands(g, uniform_demands(g.n(), k));
  const std::vector<NodeId> base = greedy_kmds(g, demands).set;
  std::vector<std::uint8_t> base_member(static_cast<std::size_t>(g.n()), 0);
  for (NodeId v : base) base_member[static_cast<std::size_t>(v)] = 1;

  // Three waves of departures, each hitting a base member so both repair
  // paths genuinely have work to do.
  std::vector<Departure> departures;
  std::int64_t round = 8;
  for (std::size_t i = 0; i < base.size() && departures.size() < 3; i += 3) {
    departures.push_back({base[i], round});
    round += 12;
  }

  obs::PlaneOptions plane_options;
  plane_options.perf = with_perf;
  obs::Plane plane(plane_options);

  const sim::HeartbeatMonitor::Options detection{.timeout = 3};
  sim::SyncNetwork net(udg, 42);
  net.set_threads(threads);
  net.set_parallel_grain(0);  // n is small; force the pool path
  net.set_observability(&plane);
  net.set_all_processes([&](NodeId v) {
    return std::make_unique<RepairProcess>(
        demands[static_cast<std::size_t>(v)],
        base_member[static_cast<std::size_t>(v)] != 0, detection);
  });
  for (const Departure& d : departures) net.schedule_crash(d.node, d.round);

  // Host-side mirror of the same churn.
  sim::DynamicWorld world(udg);
  IncrementalMaintainer maintainer(g.n(), base, {.k = k});
  maintainer.bind_plane(&plane);

  std::size_t next = 0;
  for (std::int64_t r = 0; r < 90; ++r) {
    net.step();
    while (next < departures.size() && departures[next].round == r) {
      sim::Mutation leave;
      leave.kind = sim::MutationKind::kLeave;
      leave.node = departures[next].node;
      const sim::AppliedMutation am = world.apply(leave);
      (void)maintainer.apply_batch(world.graph(), world.active_flags(),
                                   {&am, 1});
      ++next;
    }
  }

  InterplayRun out;
  for (NodeId v = 0; v < g.n(); ++v) {
    if (net.crashed(v)) continue;
    const auto& p = net.process_as<RepairProcess>(v);
    if (p.member()) out.net_members.push_back(v);
    if (p.unsatisfied()) ++out.unsatisfied;
    out.joins += p.joins();
  }
  out.maintainer_members = maintainer.member_set();
  std::ostringstream trace_os;
  plane.trace().export_jsonl(trace_os);
  out.jsonl = trace_os.str();
  std::ostringstream metrics_os;
  plane.metrics().write_json(metrics_os);
  out.metrics_json = metrics_os.str();

  // Shared postconditions, checked at every width.

  // Both repair paths restored full live coverage.
  std::vector<NodeId> failed;
  for (std::size_t i = 0; i < next; ++i) failed.push_back(departures[i].node);
  const Graph live = g.without_nodes(failed);
  Demands live_demands = clamp_demands(live, demands);
  for (NodeId f : failed) live_demands[static_cast<std::size_t>(f)] = 0;
  EXPECT_TRUE(domination::is_k_dominating(live, out.net_members, live_demands));
  EXPECT_TRUE(domination::is_k_dominating(world.snapshot(),
                                          out.maintainer_members,
                                          effective_demands(world, k)));
  // The maintainer's frozen world and the network's live graph are the
  // same topology (leave == crash: edges to the departed node vanish).
  EXPECT_EQ(world.snapshot().edges(), live.edges());

  // Idempotence once converged: more waves change no membership, and
  // re-feeding the maintainer a clamped no-op batch is a no-op.
  for (int r = 0; r < 12; ++r) net.step();
  std::vector<NodeId> later_members;
  for (NodeId v = 0; v < g.n(); ++v) {
    if (!net.crashed(v) && net.process_as<RepairProcess>(v).member()) {
      later_members.push_back(v);
    }
  }
  EXPECT_EQ(later_members, out.net_members);
  sim::Mutation again;
  again.kind = sim::MutationKind::kLeave;
  again.node = departures.front().node;  // already gone: clamped no-op
  const sim::AppliedMutation noop = world.apply(again);
  EXPECT_FALSE(noop.applied);
  const MaintainResult r2 = maintainer.apply_batch(
      world.graph(), world.active_flags(), {&noop, 1});
  EXPECT_EQ(r2.promoted, 0);
  EXPECT_EQ(r2.demoted, 0);
  EXPECT_EQ(r2.dropped, 0);
  EXPECT_EQ(maintainer.member_set(), out.maintainer_members);

  return out;
}

TEST(DynamicInterplay, RepairProcessAndMaintainerConvergeAndStayIdempotent) {
  const InterplayRun run = run_interplay(1, /*with_perf=*/false);
  // The scenario must actually exercise the interplay: departures left
  // coverage holes the in-network promotion wave had to fill.
  EXPECT_GE(run.joins, 1);
  EXPECT_EQ(run.unsatisfied, 0);
  ASSERT_FALSE(run.net_members.empty());
  ASSERT_FALSE(run.maintainer_members.empty());
}

// Bitwise width-invariance for the whole dynamic path with trace AND perf
// attribution on: same memberships, same JSONL, same registry (perf.
// wall-clock gauges excluded) at every width.
TEST(DynamicInterplay, WholeDynamicPathIsWidthDeterministic) {
  const InterplayRun seq = run_interplay(1, /*with_perf=*/true);
  ASSERT_FALSE(seq.jsonl.empty());
  for (int threads : {2, 4, 8}) {
    const InterplayRun par = run_interplay(threads, /*with_perf=*/true);
    EXPECT_EQ(seq.net_members, par.net_members) << threads << " threads";
    EXPECT_EQ(seq.maintainer_members, par.maintainer_members)
        << threads << " threads";
    EXPECT_EQ(seq.joins, par.joins) << threads << " threads";
    EXPECT_EQ(seq.jsonl, par.jsonl) << "JSONL diverged at " << threads;
    EXPECT_EQ(seq.metrics_json, par.metrics_json)
        << "registry diverged at " << threads;
  }
}

}  // namespace
}  // namespace ftc::algo
