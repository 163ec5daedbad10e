// Equivalence of the distributed LRG (sim::Process) and its centralized
// mirror, plus schedule/quiescence behavior.
#include "support/lrg_process.h"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "algo/baseline/lrg.h"
#include "domination/domination.h"
#include "geom/udg.h"
#include "graph/generators.h"
#include "sim/network.h"
#include "util/rng.h"

namespace ftc::algo {
namespace {

using domination::clamp_demands;
using domination::uniform_demands;
using graph::Graph;
using graph::NodeId;

struct DistributedLrgRun {
  std::vector<NodeId> set;
  std::int64_t rounds = 0;
  sim::Metrics metrics;
};

DistributedLrgRun run_distributed(const Graph& g,
                                  const domination::Demands& demands,
                                  std::uint64_t seed) {
  sim::SyncNetwork net(g, seed);
  net.set_all_processes([&](NodeId v) {
    return std::make_unique<LrgProcess>(demands[static_cast<std::size_t>(v)]);
  });
  DistributedLrgRun run;
  run.rounds = net.run(kLrgRoundsPerIteration *
                       (lrg_max_iterations(g.n(), g.max_degree()) + 2));
  for (NodeId v = 0; v < g.n(); ++v) {
    auto& p = net.process_as<LrgProcess>(v);
    EXPECT_TRUE(p.halted()) << "node " << v << " did not halt";
    if (p.selected()) run.set.push_back(v);
  }
  run.metrics = net.metrics();
  return run;
}

class LrgEquivalenceSweep
    : public ::testing::TestWithParam<std::tuple<int, std::int32_t>> {};

TEST_P(LrgEquivalenceSweep, ProcessMatchesMirror) {
  const auto [instance, k] = GetParam();
  const std::uint64_t seed = 600 + static_cast<std::uint64_t>(instance);
  util::Rng rng(seed);
  Graph g;
  switch (instance) {
    case 0: g = graph::gnp(60, 0.08, rng); break;
    case 1: g = graph::gnp(40, 0.25, rng); break;
    case 2: g = graph::star(25); break;
    case 3: g = graph::grid(6, 7); break;
    case 4: g = geom::uniform_udg_with_degree(70, 9.0, rng).graph; break;
    default: g = graph::random_tree(50, rng); break;
  }
  const auto d = clamp_demands(g, uniform_demands(g.n(), k));

  const auto mirror = lrg_kmds(g, d, seed);
  const auto dist = run_distributed(g, d, seed);
  EXPECT_EQ(dist.set, mirror.set);
}

INSTANTIATE_TEST_SUITE_P(
    InstancesTimesK, LrgEquivalenceSweep,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Values<std::int32_t>(1, 2, 3)));

TEST(LrgProcess, MessagesAreOneWord) {
  util::Rng rng(9);
  const Graph g = graph::gnp(50, 0.1, rng);
  const auto d = uniform_demands(50, 2);
  const auto run = run_distributed(g, clamp_demands(g, d), 3);
  EXPECT_LE(run.metrics.max_message_words, 1);
}

TEST(LrgProcess, RoundsAreIterationsTimesSchedule) {
  util::Rng rng(10);
  const Graph g = graph::gnp(60, 0.1, rng);
  const auto d = clamp_demands(g, uniform_demands(60, 1));
  const auto mirror = lrg_kmds(g, d, 11);
  const auto dist = run_distributed(g, d, 11);
  // The process needs the mirror's iterations plus (at most) two wind-down
  // iterations to observe quiescence.
  EXPECT_GE(dist.rounds, mirror.iterations * kLrgRoundsPerIteration);
  EXPECT_LE(dist.rounds,
            (mirror.iterations + 2) * kLrgRoundsPerIteration + 2);
}

TEST(LrgProcess, IsolatedNodesSelfSelectAndHalt) {
  const Graph g = graph::empty(5);
  const auto d = uniform_demands(5, 1);
  const auto run = run_distributed(g, d, 1);
  EXPECT_EQ(run.set.size(), 5u);
  // One iteration of work plus quiescence detection.
  EXPECT_LE(run.rounds, 2 * kLrgRoundsPerIteration + 2);
}

TEST(LrgProcess, ResultIsKDominating) {
  util::Rng rng(12);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = graph::gnp(80, 0.08, rng);
    const auto d = clamp_demands(g, uniform_demands(80, 2));
    const auto run =
        run_distributed(g, d, 40 + static_cast<std::uint64_t>(trial));
    EXPECT_TRUE(domination::is_k_dominating(g, run.set, d))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace ftc::algo
