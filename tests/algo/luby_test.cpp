#include "algo/baseline/luby.h"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "support/luby_process.h"
#include "domination/domination.h"
#include "geom/udg.h"
#include "graph/generators.h"
#include "sim/network.h"
#include "util/rng.h"

namespace ftc::algo {
namespace {

using graph::Graph;
using graph::NodeId;

TEST(Luby, PhaseRoundsGrowLogarithmically) {
  EXPECT_LT(luby_phase_rounds(100), luby_phase_rounds(100000));
  EXPECT_GE(luby_phase_rounds(2), 8);
}

TEST(Luby, FoldsAreIndependentSets) {
  util::Rng rng(1);
  const Graph g = graph::gnp(80, 0.1, rng);
  const auto result = luby_mis_kfold(g, 1, 42);
  EXPECT_EQ(result.forced_joins, 0);
  for (std::size_t i = 0; i < result.set.size(); ++i) {
    for (std::size_t j = i + 1; j < result.set.size(); ++j) {
      EXPECT_FALSE(g.has_edge(result.set[i], result.set[j]));
    }
  }
}

TEST(Luby, KFoldDominatesOpenMode) {
  util::Rng rng(2);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = graph::gnp(100, 0.08, rng);
    for (std::int32_t k : {1, 2, 4}) {
      const auto result =
          luby_mis_kfold(g, k, 500 + static_cast<std::uint64_t>(trial));
      EXPECT_TRUE(domination::is_k_dominating(
          g, result.set, k, domination::Mode::kOpenForNonMembers))
          << "trial " << trial << " k " << k;
      EXPECT_EQ(result.fold_sizes.size(), static_cast<std::size_t>(k));
    }
  }
}

TEST(Luby, FoldSizesSumToSetSize) {
  util::Rng rng(3);
  const Graph g = graph::gnp(90, 0.1, rng);
  const auto result = luby_mis_kfold(g, 3, 7);
  std::int64_t total = 0;
  for (auto s : result.fold_sizes) total += s;
  EXPECT_EQ(static_cast<std::int64_t>(result.set.size()), total);
}

TEST(Luby, DeterministicPerSeed) {
  util::Rng rng(4);
  const Graph g = graph::gnp(60, 0.12, rng);
  const auto a = luby_mis_kfold(g, 2, 99);
  const auto b = luby_mis_kfold(g, 2, 99);
  EXPECT_EQ(a.set, b.set);
  const auto c = luby_mis_kfold(g, 2, 100);
  EXPECT_NE(a.set, c.set);
}

TEST(Luby, IsolatedNodesJoinEveryApplicableFold) {
  const Graph g = graph::empty(4);
  const auto result = luby_mis_kfold(g, 3, 1);
  // Isolated nodes join fold 0 and are excluded afterwards.
  EXPECT_EQ(result.set.size(), 4u);
  EXPECT_EQ(result.fold_sizes[0], 4);
  EXPECT_EQ(result.fold_sizes[1], 0);
}

TEST(Luby, CliqueSelectsKNodes) {
  const Graph g = graph::complete(8);
  const auto result = luby_mis_kfold(g, 3, 5);
  EXPECT_EQ(result.set.size(), 3u);  // one per fold
}

class LubyProcessEquivalence
    : public ::testing::TestWithParam<std::tuple<int, std::int32_t>> {};

TEST_P(LubyProcessEquivalence, ProcessMatchesMirror) {
  const auto [instance, k] = GetParam();
  const std::uint64_t seed = 700 + static_cast<std::uint64_t>(instance);
  util::Rng rng(seed);
  Graph g;
  switch (instance) {
    case 0: g = graph::gnp(50, 0.1, rng); break;
    case 1: g = graph::star(30); break;
    case 2: g = geom::uniform_udg_with_degree(80, 10.0, rng).graph; break;
    default: g = graph::grid(6, 8); break;
  }

  const auto mirror = luby_mis_kfold(g, k, seed);

  sim::SyncNetwork net(g, seed);
  net.set_all_processes(
      [&](NodeId) { return std::make_unique<LubyMisProcess>(k); });
  const auto rounds = net.run(mirror.rounds + 4);
  EXPECT_EQ(rounds, mirror.rounds);
  EXPECT_LE(net.metrics().max_message_words, 1);

  std::vector<NodeId> dist_set;
  for (NodeId v = 0; v < g.n(); ++v) {
    auto& p = net.process_as<LubyMisProcess>(v);
    EXPECT_TRUE(p.halted());
    EXPECT_FALSE(p.force_joined());
    if (p.selected()) dist_set.push_back(v);
  }
  EXPECT_EQ(dist_set, mirror.set);
}

INSTANTIATE_TEST_SUITE_P(
    InstancesTimesK, LubyProcessEquivalence,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Values<std::int32_t>(1, 2, 3)));

}  // namespace
}  // namespace ftc::algo
