#include "testing/dynamic.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "algo/baseline/greedy.h"
#include "algo/extensions/maintainer.h"
#include "algo/extensions/repair_process.h"
#include "domination/domination.h"
#include "domination/kernels.h"
#include "geom/dynamic.h"
#include "geom/point.h"
#include "graph/dynamic.h"
#include "sim/network.h"
#include "util/rng.h"

namespace ftc::testing {

using domination::Demands;
using graph::Graph;
using graph::NodeId;

namespace {

void add(Violations& out, const char* invariant, std::string detail) {
  out.push_back({invariant, std::move(detail)});
}

/// Effective demands of the mutated world: min(k, deg+1) for active nodes
/// (the clamp_demands convention), 0 for departed ones — exactly what the
/// maintainer contract promises to keep satisfied.
Demands effective_demands(const Graph& g, std::span<const std::uint8_t> active,
                          std::int32_t k) {
  Demands demands(static_cast<std::size_t>(g.n()), 0);
  for (NodeId v = 0; v < g.n(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    if (active[i] == 0) continue;
    demands[i] = std::min(k, g.degree(v) + 1);
  }
  return demands;
}

/// Independent two-hop ball around the batch's seed nodes in the
/// post-mutation graph — recomputed from the AppliedMutations alone, so it
/// shares no code with the maintainer's own ball construction.
std::vector<std::uint8_t> locality_ball(
    const Graph& g, std::span<const sim::AppliedMutation> batch) {
  const auto n = static_cast<std::size_t>(g.n());
  std::vector<std::uint8_t> ball(n, 0);
  std::vector<NodeId> frontier;
  auto seed = [&](NodeId v) {
    if (v < 0 || static_cast<std::size_t>(v) >= n) return;
    if (!ball[static_cast<std::size_t>(v)]) {
      ball[static_cast<std::size_t>(v)] = 1;
      frontier.push_back(v);
    }
  };
  for (const sim::AppliedMutation& am : batch) {
    seed(am.m.node);
    seed(am.m.peer);
    for (const graph::Edge& e : am.delta.added) {
      seed(e.u);
      seed(e.v);
    }
    for (const graph::Edge& e : am.delta.removed) {
      seed(e.u);
      seed(e.v);
    }
  }
  for (int hop = 0; hop < 2; ++hop) {
    std::vector<NodeId> next;
    for (const NodeId v : frontier) {
      for (const NodeId w : g.neighbors(v)) {
        if (!ball[static_cast<std::size_t>(w)]) {
          ball[static_cast<std::size_t>(w)] = 1;
          next.push_back(w);
        }
      }
    }
    frontier = std::move(next);
  }
  return ball;
}

/// What one full replay of a trace produced — compared bitwise between two
/// independent replays for the determinism invariant.
struct ReplaySummary {
  std::vector<std::uint8_t> final_member;
  std::int64_t promoted = 0;
  std::int64_t demoted = 0;
  std::int64_t batches = 0;

  friend bool operator==(const ReplaySummary&, const ReplaySummary&) = default;
};

/// Per-batch audit hook: (applied batch, maintainer result, pre-batch
/// membership, post-batch world, maintainer).
using BatchHook = std::function<void(std::span<const sim::AppliedMutation>,
                                     const algo::MaintainResult&,
                                     const std::vector<std::uint8_t>&,
                                     const sim::DynamicWorld&,
                                     const algo::IncrementalMaintainer&)>;

ReplaySummary replay_trace(const FuzzCase& c, const Instance& inst,
                           const sim::MutationTrace& trace, bool promote,
                           const BatchHook& hook) {
  const Graph& g0 = inst.graph();
  auto world = inst.has_udg
                   ? std::make_unique<sim::DynamicWorld>(inst.udg)
                   : std::make_unique<sim::DynamicWorld>(inst.g);

  // Any fully-covering initial set satisfies the maintainer precondition;
  // greedy over the clamped uniform-k demands is the cheapest one.
  const auto initial_demands = domination::clamp_demands(
      g0, domination::uniform_demands(g0.n(), c.k));
  const auto initial_set = algo::greedy_kmds(g0, initial_demands).set;

  algo::MaintainerOptions mopts;
  mopts.k = c.k;
  mopts.promote = promote;
  algo::IncrementalMaintainer maintainer(g0.n(), initial_set, mopts);

  ReplaySummary summary;
  std::size_t i = 0;
  std::vector<sim::AppliedMutation> batch;
  while (i < trace.size()) {
    const std::int64_t round = trace[i].round;
    batch.clear();
    for (; i < trace.size() && trace[i].round == round; ++i) {
      batch.push_back(world->apply(trace[i].m));
    }
    const std::vector<std::uint8_t> pre = maintainer.membership();
    const algo::MaintainResult result =
        maintainer.apply_batch(world->graph(), world->active_flags(), batch);
    ++summary.batches;
    if (hook) hook(batch, result, pre, *world, maintainer);
  }
  summary.final_member = maintainer.membership();
  summary.promoted = maintainer.total_promoted();
  summary.demoted = maintainer.total_demoted();
  return summary;
}

/// One width's outcome in the post-churn width-invariance check.
struct Run {
  std::vector<NodeId> final_set;
  std::int64_t unsatisfied = 0;
  sim::Metrics metrics;

  friend bool operator==(const Run&, const Run&) = default;
};

/// Width-invariance of the repair daemon over the post-churn topology: the
/// dynamic path must hand the engine a graph on which serial and parallel
/// runs stay bitwise equal, including under the case's impaired channel.
void check_dynamic_parallel(const FuzzCase& c, const Graph& g,
                            const std::vector<std::uint8_t>& active,
                            const std::vector<std::uint8_t>& member,
                            Violations& out) {
  const Demands demands = effective_demands(g, active, c.k);
  const sim::HeartbeatMonitor::Options detection{.timeout = 3};

  auto run_width = [&](int threads) {
    sim::SyncNetwork net(g, c.algo_seed);
    net.set_threads(threads);
    net.set_parallel_grain(0);
    sim::ChannelOptions channel = channel_from_case(c);
    if (channel.impaired()) {
      channel.seed = c.algo_seed ^ 0xD15EA5EULL;
      net.set_channel(channel);
    }
    net.set_all_processes([&](NodeId v) {
      const auto i = static_cast<std::size_t>(v);
      return std::make_unique<algo::RepairProcess>(
          demands[i], member[i] != 0, detection);
    });
    net.run(40);
    Run run;
    for (NodeId v = 0; v < g.n(); ++v) {
      const auto& p = net.process_as<algo::RepairProcess>(v);
      if (p.member()) run.final_set.push_back(v);
      if (p.unsatisfied()) ++run.unsatisfied;
    }
    run.metrics = net.metrics();
    return run;
  };

  const Run serial = run_width(1);
  const Run parallel = run_width(c.threads);
  if (!(parallel == serial)) {
    add(out, "engine.dynamic_parallel",
        "post-churn repair run differs at threads=" +
            std::to_string(c.threads));
  }
}

}  // namespace

sim::MutationTrace trace_from_case(const FuzzCase& c, const Instance& inst) {
  sim::MutationTrace trace;
  if (c.mutations <= 0) return trace;
  util::Rng rng(c.mutation_seed);

  // Geometric draws land inside the deployment's bounding box grown by half
  // a radius, so joins/moves exercise both dense cores and the boundary.
  double lo_x = 0.0, hi_x = 1.0, lo_y = 0.0, hi_y = 1.0;
  if (inst.has_udg && !inst.udg.positions.empty()) {
    lo_x = hi_x = inst.udg.positions.front().x;
    lo_y = hi_y = inst.udg.positions.front().y;
    for (const geom::Point& p : inst.udg.positions) {
      lo_x = std::min(lo_x, p.x);
      hi_x = std::max(hi_x, p.x);
      lo_y = std::min(lo_y, p.y);
      hi_y = std::max(hi_y, p.y);
    }
    const double pad = inst.udg.radius / 2.0;
    lo_x -= pad;
    hi_x += pad;
    lo_y -= pad;
    hi_y += pad;
  }

  // All draws happen per-mutation in trace order (batch-boundary round
  // advances included), so truncating c.mutations yields an exact prefix —
  // the property trace shrinking relies on.
  const std::int32_t batch = std::max<std::int32_t>(1, c.mutation_batch);
  NodeId current_n = inst.graph().n();
  std::int64_t round = 0;
  for (std::int32_t i = 0; i < c.mutations; ++i) {
    if (i > 0 && i % batch == 0) round += rng.uniform_i64(1, 3);
    sim::Mutation m;
    const double u = rng.uniform01();
    const auto draw_node = [&] {
      return static_cast<NodeId>(
          rng.index(static_cast<std::size_t>(current_n)));
    };
    // Every world draws all four kinds, so both of DynamicWorld::apply's
    // branches run for each: a plain world's move re-anchors the node to a
    // peer, and an embedded world's flip is a no-op (its edges follow the
    // embedding).
    const double join = inst.has_udg ? 0.25 : 0.30;
    const double leave = inst.has_udg ? 0.55 : 0.60;
    const double moves = inst.has_udg ? 0.35 : 0.10;
    if (u < join) {
      m.kind = sim::MutationKind::kJoin;
      if (inst.has_udg) {
        m.x = rng.uniform(lo_x, hi_x);
        m.y = rng.uniform(lo_y, hi_y);
      } else {
        m.peer = draw_node();
      }
    } else if (u < leave) {
      m.kind = sim::MutationKind::kLeave;
      m.node = draw_node();
    } else if (u < leave + moves) {
      m.kind = sim::MutationKind::kMove;
      m.node = draw_node();
      if (inst.has_udg) {
        m.x = rng.uniform(lo_x, hi_x);
        m.y = rng.uniform(lo_y, hi_y);
      } else {
        m.peer = draw_node();
      }
    } else {
      // Flip may draw node == peer; DynamicWorld clamps that to a no-op,
      // which is itself a path worth fuzzing.
      m.kind = sim::MutationKind::kFlip;
      m.node = draw_node();
      m.peer = draw_node();
    }
    if (m.kind == sim::MutationKind::kJoin) ++current_n;
    trace.push_back({round, m});
  }
  return trace;
}

void check_dynamic(const FuzzCase& c, const Instance& inst, Mutation mutation,
                   Violations& out) {
  const sim::MutationTrace trace = trace_from_case(c, inst);
  if (trace.empty()) return;
  const bool promote = mutation != Mutation::kMaintainerNoPromotion;

  domination::CoverageScratch scratch;
  std::int64_t batch_index = 0;

  const BatchHook audit = [&](std::span<const sim::AppliedMutation> batch,
                              const algo::MaintainResult& result,
                              const std::vector<std::uint8_t>& pre,
                              const sim::DynamicWorld& world,
                              const algo::IncrementalMaintainer& maintainer) {
    const std::int64_t b = batch_index++;
    const Graph g = world.snapshot();
    const auto n = static_cast<std::size_t>(g.n());
    const std::vector<std::uint8_t>& active = world.active_flags();
    const std::vector<std::uint8_t>& post = maintainer.membership();

    // changed_report: the reported changed list is exactly the pre/post
    // membership diff (joins extend the id space; absent pre bits are 0).
    std::vector<NodeId> diff;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint8_t before = i < pre.size() ? pre[i] : 0;
      if (before != post[i]) diff.push_back(static_cast<NodeId>(i));
    }
    if (diff != result.changed) {
      add(out, "dynamic.changed_report",
          "batch " + std::to_string(b) + ": reported " +
              std::to_string(result.changed.size()) +
              " changed nodes, actual diff " + std::to_string(diff.size()));
    }

    // member_live: departed nodes must not linger in the set.
    for (std::size_t i = 0; i < n; ++i) {
      if (post[i] != 0 && active[i] == 0) {
        add(out, "dynamic.member_live",
            "batch " + std::to_string(b) + ": inactive node " +
                std::to_string(i) + " is still a member");
        break;
      }
    }

    // coverage: full re-solve ground truth — the membership k-covers the
    // post-batch effective demands. This is the clause the
    // maintainer-no-promotion mutant must trip.
    const Demands demands = effective_demands(g, active, c.k);
    const auto members = domination::to_node_list(post);
    const auto deficit = domination::deficiency(
        g, members, demands, domination::Mode::kClosedNeighborhood, scratch);
    if (deficit != 0) {
      add(out, "dynamic.coverage",
          "batch " + std::to_string(b) + ": shortfall " +
              std::to_string(deficit) + " after " +
              std::to_string(batch.size()) + " mutation(s)");
    }

    // locality: every membership change sits inside the independently
    // recomputed two-hop ball of the batch's seeds.
    const auto ball = locality_ball(g, batch);
    for (const NodeId v : diff) {
      if (!ball[static_cast<std::size_t>(v)]) {
        add(out, "dynamic.locality",
            "batch " + std::to_string(b) + ": node " + std::to_string(v) +
                " changed membership outside the two-hop ball");
        break;
      }
    }

    // over_promotion: promotions are bounded by the deficit the batch
    // actually opened (pre-membership minus departed members, measured on
    // the post-mutation graph). Each greedy promotion must close >= 1 unit.
    std::vector<std::uint8_t> base(n, 0);
    for (std::size_t i = 0; i < n && i < pre.size(); ++i) {
      base[i] = static_cast<std::uint8_t>(pre[i] != 0 && active[i] != 0);
    }
    const auto opened = domination::deficiency(
        g, domination::to_node_list(base), demands,
        domination::Mode::kClosedNeighborhood, scratch);
    if (result.promoted > opened) {
      add(out, "dynamic.over_promotion",
          "batch " + std::to_string(b) + ": promoted " +
              std::to_string(result.promoted) + " for a deficit of " +
              std::to_string(opened));
    }

    // udg_incremental: the incrementally maintained edge set equals a
    // brute-force O(n^2) geometric rebuild — the grid took no shortcuts.
    if (world.geometric()) {
      const geom::DynamicUdg& udg = *world.udg();
      const double r_sq = udg.radius() * udg.radius();
      std::vector<graph::Edge> expected;
      for (NodeId uu = 0; uu < g.n(); ++uu) {
        if (!udg.active(uu)) continue;
        for (NodeId vv = uu + 1; vv < g.n(); ++vv) {
          if (!udg.active(vv)) continue;
          if (geom::dist_sq(udg.positions()[static_cast<std::size_t>(uu)],
                            udg.positions()[static_cast<std::size_t>(vv)]) <=
              r_sq) {
            expected.push_back({uu, vv});
          }
        }
      }
      if (world.graph().edges() != expected) {
        add(out, "dynamic.udg_incremental",
            "batch " + std::to_string(b) +
                ": incremental UDG edges diverge from geometric rebuild (" +
                std::to_string(world.graph().m()) + " vs " +
                std::to_string(expected.size()) + " edges)");
      }
    }
  };

  const ReplaySummary first = replay_trace(c, inst, trace, promote, audit);

  // determinism: a second, independent replay of the same trace must land
  // on the identical membership and counters.
  const ReplaySummary second =
      replay_trace(c, inst, trace, promote, BatchHook{});
  if (!(second == first)) {
    add(out, "dynamic.determinism",
        "replaying the identical trace changed the outcome");
  }

  // rebuild_roundtrip: rebuild-vs-mutate — the final mutated topology,
  // frozen to CSR, equals Graph::from_edges over the same edge list.
  {
    auto world = inst.has_udg
                     ? std::make_unique<sim::DynamicWorld>(inst.udg)
                     : std::make_unique<sim::DynamicWorld>(inst.g);
    for (const sim::TimedMutation& tm : trace) world->apply(tm.m);
    const Graph snap = world->snapshot();
    const Graph rebuilt = Graph::from_edges(world->n(), world->graph().edges());
    bool ok = rebuilt.n() == snap.n();
    for (NodeId v = 0; ok && v < snap.n(); ++v) {
      const auto nbrs = snap.neighbors(v);
      const auto rb = rebuilt.neighbors(v);
      ok = std::equal(rb.begin(), rb.end(), nbrs.begin(), nbrs.end());
    }
    if (!ok) {
      add(out, "dynamic.rebuild_roundtrip",
          "mutated snapshot differs from its from_edges rebuild");
    }

    // Width invariance of the engine on the post-churn topology, including
    // under the case's impaired channel.
    if (c.run_differential && c.threads > 1) {
      check_dynamic_parallel(c, snap, world->active_flags(),
                             first.final_member, out);
    }
  }
}

}  // namespace ftc::testing
