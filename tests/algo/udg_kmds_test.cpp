#include "algo/udg/udg_kmds.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "algo/udg/udg_kmds_process.h"
#include "domination/domination.h"
#include "geom/point.h"
#include "geom/udg.h"
#include "sim/network.h"
#include "util/rng.h"

namespace ftc::algo {
namespace {

using graph::NodeId;

TEST(UdgParams, Part1RoundsGrowsDoublyLogarithmically) {
  EXPECT_EQ(udg_part1_rounds(2), 1);
  const auto r100 = udg_part1_rounds(100);
  const auto r10k = udg_part1_rounds(10'000);
  const auto r1m = udg_part1_rounds(1'000'000);
  EXPECT_LE(r100, r10k);
  EXPECT_LE(r10k, r1m);
  // log_{1.5}(log2(1e6)) ≈ log(19.93)/log(1.5) ≈ 7.38 -> 8 rounds.
  EXPECT_EQ(r1m, 8);
}

TEST(UdgParams, InitialThetaMatchesFormula) {
  const double log2n = std::log2(1000.0);
  const double expected = 0.5 * std::pow(log2n, -1.0 / std::log2(1.5));
  EXPECT_NEAR(udg_initial_theta(1000), expected, 1e-12);
  EXPECT_DOUBLE_EQ(udg_initial_theta(2), 0.5);
}

TEST(UdgParams, FinalThetaIsAtMostHalf) {
  // θ in the last executed round must stay within the probing radius 1/2.
  for (NodeId n : {10, 100, 1000, 100000}) {
    double theta = udg_initial_theta(n);
    const auto rounds = udg_part1_rounds(n);
    for (std::int64_t r = 1; r < rounds; ++r) theta *= 2.0;
    EXPECT_LE(theta, 0.5 + 1e-12) << "n=" << n;
    // And after the final doubling the cover radius is within [1/2, 1].
    EXPECT_GE(2.0 * theta, 0.5 - 1e-12) << "n=" << n;
  }
}

TEST(UdgParams, IdRangeIsFourthPowerClamped) {
  EXPECT_EQ(udg_id_range(10), 10000u);
  EXPECT_EQ(udg_id_range(100), 100000000u);
  // Saturation at 2^62 for huge n.
  EXPECT_EQ(udg_id_range(2'000'000), std::uint64_t{1} << 62);
}

geom::UnitDiskGraph make_udg(NodeId n, double degree, std::uint64_t seed) {
  util::Rng rng(seed);
  return geom::uniform_udg_with_degree(n, degree, rng);
}

TEST(UdgKmds, Part1LeadersFormDominatingSet) {
  // Lemma 5.1: every node is a leader or adjacent to one.
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const auto udg = make_udg(400, 12.0, seed);
    UdgOptions opts;
    opts.k = 1;
    const auto result = solve_udg_kmds(udg, opts, seed);
    EXPECT_TRUE(domination::is_k_dominating(
        udg.graph, result.part1_leaders, 1,
        domination::Mode::kOpenForNonMembers))
        << "seed " << seed;
  }
}

TEST(UdgKmds, FinalSetIsKFoldDominating) {
  for (std::uint64_t seed : {10u, 20u, 30u}) {
    const auto udg = make_udg(500, 15.0, seed);
    for (std::int32_t k : {1, 2, 3, 5}) {
      UdgOptions opts;
      opts.k = k;
      const auto result = solve_udg_kmds(udg, opts, seed);
      EXPECT_TRUE(result.fully_satisfied);
      EXPECT_TRUE(domination::is_k_dominating(
          udg.graph, result.leaders, k,
          domination::Mode::kOpenForNonMembers))
          << "seed " << seed << " k " << k;
    }
  }
}

TEST(UdgKmds, ActiveCountsDecreaseMonotonically) {
  const auto udg = make_udg(800, 20.0, 77);
  UdgOptions opts;
  opts.k = 1;
  const auto result = solve_udg_kmds(udg, opts, 77);
  for (std::size_t i = 1; i < result.active_after_round.size(); ++i) {
    EXPECT_LE(result.active_after_round[i], result.active_after_round[i - 1]);
  }
  ASSERT_FALSE(result.active_after_round.empty());
  EXPECT_EQ(result.active_after_round.back(),
            static_cast<std::int64_t>(result.part1_leaders.size()));
}

TEST(UdgKmds, DeterministicForSeed) {
  const auto udg = make_udg(300, 10.0, 5);
  UdgOptions opts;
  opts.k = 2;
  const auto a = solve_udg_kmds(udg, opts, 123);
  const auto b = solve_udg_kmds(udg, opts, 123);
  EXPECT_EQ(a.leaders, b.leaders);
  const auto c = solve_udg_kmds(udg, opts, 124);
  EXPECT_NE(a.leaders, c.leaders);  // overwhelmingly likely
}

TEST(UdgKmds, SingleNode) {
  const geom::UnitDiskGraph udg = geom::build_udg({{0.0, 0.0}}, 1.0);
  UdgOptions opts;
  opts.k = 3;
  const auto result = solve_udg_kmds(udg, opts, 1);
  EXPECT_EQ(result.leaders, (std::vector<NodeId>{0}));
}

TEST(UdgKmds, IsolatedNodesAllBecomeLeaders) {
  // Far-apart nodes: everyone elects itself forever.
  std::vector<geom::Point> pts;
  for (int i = 0; i < 5; ++i) {
    pts.push_back({static_cast<double>(i) * 10.0, 0.0});
  }
  const auto udg = geom::build_udg(pts, 1.0);
  UdgOptions opts;
  opts.k = 2;
  const auto result = solve_udg_kmds(udg, opts, 9);
  EXPECT_EQ(result.leaders.size(), 5u);
}

TEST(UdgKmds, DenseCliqueElectsFewPart1Leaders) {
  // All nodes within distance 1 of each other: Part I should thin the
  // active set down to O(1) leaders.
  util::Rng rng(42);
  std::vector<geom::Point> pts;
  for (int i = 0; i < 200; ++i) {
    pts.push_back({rng.uniform(0.0, 0.4), rng.uniform(0.0, 0.4)});
  }
  const auto udg = geom::build_udg(pts, 1.0);
  UdgOptions opts;
  opts.k = 1;
  const auto result = solve_udg_kmds(udg, opts, 3);
  EXPECT_LE(result.part1_leaders.size(), 12u);
  EXPECT_GE(result.part1_leaders.size(), 1u);
}

TEST(UdgKmds, Part2AddsAtMostKPerLeaderPerIteration) {
  const auto udg = make_udg(400, 14.0, 55);
  UdgOptions opts;
  opts.k = 3;
  const auto result = solve_udg_kmds(udg, opts, 55);
  const auto added = static_cast<std::int64_t>(result.leaders.size()) -
                     static_cast<std::int64_t>(result.part1_leaders.size());
  EXPECT_GE(added, 0);
  EXPECT_LE(added, result.part2_iterations * 3 *
                       static_cast<std::int64_t>(result.leaders.size()));
}

class UdgProcessEquivalence
    : public ::testing::TestWithParam<std::tuple<int, std::int32_t>> {};

TEST_P(UdgProcessEquivalence, ProcessMatchesMirror) {
  const auto [instance, k] = GetParam();
  const std::uint64_t seed = 900 + static_cast<std::uint64_t>(instance);
  geom::UnitDiskGraph udg;
  switch (instance) {
    case 0: udg = make_udg(150, 8.0, seed); break;
    case 1: udg = make_udg(300, 15.0, seed); break;
    case 2: {
      util::Rng rng(seed);
      udg = geom::build_udg(geom::clustered_points(200, 5, 8.0, 0.6, rng),
                            1.0);
      break;
    }
    default: {
      util::Rng rng(seed);
      udg = geom::build_udg(geom::perturbed_grid_points(196, 10.0, 0.3, rng),
                            1.0);
      break;
    }
  }

  UdgOptions opts;
  opts.k = k;
  const auto mirror = solve_udg_kmds(udg, opts, seed);

  sim::SyncNetwork net(udg, seed);
  const auto dist = run_udg_processes(net, opts);
  EXPECT_LT(net.round(), udg_round_budget(udg.n(), opts)) << "did not halt";
  EXPECT_EQ(dist.part1_leaders, mirror.part1_leaders);
  EXPECT_EQ(dist.leaders, mirror.leaders);
  EXPECT_EQ(dist.part1_rounds, mirror.part1_rounds);
}

INSTANTIATE_TEST_SUITE_P(
    InstancesTimesK, UdgProcessEquivalence,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Values<std::int32_t>(1, 2, 4)));

TEST(UdgProcess, MessageSizeIsConstantWords) {
  const auto udg = make_udg(200, 10.0, 31);
  sim::SyncNetwork net(udg, 31);
  run_udg_processes(net, {.k = 2});
  EXPECT_LE(net.metrics().max_message_words, 2);
}

TEST(UdgProcess, RunsInExpectedRoundBudget) {
  // Part I: 2R rounds; Part II: constant expected iterations. Even a very
  // conservative budget of 2R + 3·(#iterations + 2) with iterations ~ O(k)
  // should suffice on benign instances.
  const auto udg = make_udg(400, 12.0, 71);
  sim::SyncNetwork net(udg, 71);
  run_udg_processes(net, {.k = 3});
  const auto R = udg_part1_rounds(udg.n());
  EXPECT_LE(net.round(), 2 * R + 3 * 40) << "Part II took implausibly long";
}


// ---- The θ boundary and the process's fast paths ----
//
// Each case runs UdgKmdsProcess to quiescence and compares it with the
// mirror (Part I leaders, final leaders). The process's traffic is pinned
// as sim::Metrics: the nearest-neighbour probe skip and the k-capped
// leader set must not change a single message. The n = 2 counts are
// derived by hand below; the others were recorded from the plain probe
// loop, which tests every neighbour's distance in every round.

/// Pinned traffic of a run: every Alg 3 message is 1 or 2 words, and each
/// case below sends at least one probe.
sim::Metrics traffic(std::int64_t rounds, std::int64_t messages,
                     std::int64_t words) {
  return {.rounds = rounds,
          .messages_sent = messages,
          .words_sent = words,
          .max_message_words = 2};
}

/// Runs process and mirror; expects equal leader sets and the pinned
/// traffic. Returns the mirror's result.
UdgResult expect_process_matches_mirror(const geom::UnitDiskGraph& udg,
                                        std::int32_t k, std::uint64_t seed,
                                        const sim::Metrics& expected) {
  UdgOptions opts;
  opts.k = k;
  const UdgResult mirror = solve_udg_kmds(udg, opts, seed);
  sim::SyncNetwork net(udg, seed);
  const UdgResult run = run_udg_processes(net, opts);
  EXPECT_LT(net.round(), udg_round_budget(udg.n(), opts)) << "did not halt";
  EXPECT_EQ(run.part1_leaders, mirror.part1_leaders);
  EXPECT_EQ(run.leaders, mirror.leaders);
  const sim::Metrics& m = net.metrics();
  EXPECT_EQ(m, expected) << "rounds " << m.rounds << " messages "
                         << m.messages_sent << " words " << m.words_sent
                         << " max " << m.max_message_words;
  return mirror;
}

/// The Part I probe radii θ_0..θ_{R-1} for n nodes, doubled as the process
/// and the mirror double them.
std::vector<double> scheduled_thetas(NodeId n) {
  std::vector<double> thetas;
  double theta = udg_initial_theta(n);
  for (std::int64_t r = 0; r < udg_part1_rounds(n); ++r, theta *= 2.0) {
    thetas.push_back(theta);
  }
  return thetas;
}

TEST(UdgBoundary, PairAtRoundedThetaMergesInBoth) {
  // n = 2: one Part I round at θ = 1/2. The sensed distance
  // sqrt(0.25 + 3.6e-17) rounds to exactly 0.5, but the squared distance
  // is one ulp above 0.25, so a d² <= θ² test keeps the nodes apart.
  const auto udg = geom::build_udg({{0.0, 0.0}, {0.5, 6e-9}}, 1.0);
  ASSERT_EQ(scheduled_thetas(2), (std::vector<double>{0.5}));
  ASSERT_EQ(udg.distance(0, 1), 0.5);
  ASSERT_GT(geom::dist_sq(udg.positions[0], udg.positions[1]), 0.25);
  // Round 0: two probes (2 words each); round 1: the loser elects the
  // winner. Then one Part II iteration (leader flags, deficiency flags, a
  // halting B2) at k = 1; at k = 2 the deficient node is promoted in the
  // first B2 and a second iteration follows.
  const sim::Metrics k1 = traffic(5, 7, 9);
  const sim::Metrics k2 = traffic(8, 12, 14);
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto m1 = expect_process_matches_mirror(udg, 1, seed, k1);
    EXPECT_EQ(m1.part1_leaders.size(), 1u);
    EXPECT_EQ(m1.leaders.size(), 1u);
    const auto m2 = expect_process_matches_mirror(udg, 2, seed, k2);
    EXPECT_EQ(m2.part1_leaders.size(), 1u);
    EXPECT_EQ(m2.leaders, (std::vector<NodeId>{0, 1}));
  }
}

TEST(UdgBoundary, SearchedOffsetAtLastThetaMergesInBoth) {
  // n = 4, R = 2. Node 1 sits at a searched offset from node 0 where
  // sqrt(d²) <= θ_1 but d² > θ_1², so the pair first meets in the last
  // Part I round under the process's test and never under the squared
  // one. Nodes 2 and 3 are a second pair far away.
  const NodeId n = 4;
  const double theta = scheduled_thetas(n).back();
  const geom::Point origin{0.0, 0.0};
  geom::Point offset{theta, 0.0};
  bool found = false;
  for (int i = 1; i <= 2000 && !found; ++i) {
    offset = {theta, theta * 1e-9 * i};
    found = geom::dist(origin, offset) <= theta &&
            !(geom::dist_sq(origin, offset) <= theta * theta);
  }
  ASSERT_TRUE(found) << "no disagreeing offset for theta " << theta;
  const auto udg =
      geom::build_udg({origin, offset, {3.0, 0.0}, {3.0, 0.1}}, 1.0);
  ASSERT_EQ(udg.distance(0, 1), udg.distance(1, 0));
  const sim::Metrics k1 = traffic(7, 15, 20);
  const sim::Metrics k2 = traffic(10, 25, 30);
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto m1 = expect_process_matches_mirror(udg, 1, seed, k1);
    EXPECT_EQ(m1.part1_leaders.size(), 2u);  // one per pair
    expect_process_matches_mirror(udg, 2, seed, k2);
  }
}

TEST(UdgFastPath, IsolatedNodeNeverProbes) {
  // Node 2 has no neighbour (nearest distance +∞): it skips every probe,
  // stays active to the end of Part I and is a leader.
  const auto udg =
      geom::build_udg({{0.0, 0.0}, {0.1, 0.0}, {5.0, 5.0}}, 1.0);
  ASSERT_EQ(udg.graph.degree(2), 0);
  // Node 2 adds nothing: the pair's traffic is that of the n = 2 case.
  const sim::Metrics k1 = traffic(5, 7, 9);
  const sim::Metrics k3 = traffic(8, 12, 14);
  for (std::uint64_t seed : {4u, 5u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto m1 = expect_process_matches_mirror(udg, 1, seed, k1);
    EXPECT_TRUE(std::binary_search(m1.part1_leaders.begin(),
                                   m1.part1_leaders.end(), NodeId{2}));
    expect_process_matches_mirror(udg, 3, seed, k3);
  }
}

TEST(UdgFastPath, NeighbourExactlyAtScheduledThetaIsProbed) {
  // Node 1 is at exactly θ_r from node 0 (sqrt of a square is exact), so
  // the nearest distance equals θ_r: rounds before r skip the probe, round
  // r must not. Skipping on θ <= nearest would leave the pair apart.
  const NodeId n = 4;
  const auto thetas = scheduled_thetas(n);
  // Meeting at r = 0, the winner probes the passive loser again at r = 1.
  const std::vector<sim::Metrics> expected{traffic(7, 8, 11),
                                           traffic(7, 7, 9)};
  ASSERT_EQ(thetas.size(), expected.size());
  for (std::size_t r = 0; r < thetas.size(); ++r) {
    SCOPED_TRACE("r " + std::to_string(r));
    const auto udg = geom::build_udg(
        {{0.0, 0.0}, {thetas[r], 0.0}, {4.0, 4.0}, {8.0, 8.0}}, 1.0);
    ASSERT_EQ(udg.distance(0, 1), thetas[r]);
    const auto mirror =
        expect_process_matches_mirror(udg, 1, 7, expected[r]);
    EXPECT_EQ(mirror.part1_leaders.size(), 3u);  // the pair merged
  }
}

TEST(UdgFastPath, DenseClustersExerciseTheLeaderCap) {
  // Tight clusters in a sparse field: cluster nodes hear more than k
  // distinct leaders, and leaders whose neighbourhood is satisfied halt
  // while deficient field nodes nearby still run.
  util::Rng rng(2024);
  auto points = geom::clustered_points(300, 3, 6.0, 0.35, rng);
  for (const geom::Point& p : geom::uniform_points(100, 6.0, rng)) {
    points.push_back(p);
  }
  const auto udg = geom::build_udg(points, 1.0);
  const std::uint64_t seed = 31;
  const std::vector<std::pair<std::int32_t, sim::Metrics>> cases{
      {1, traffic(15, 66406, 70171)},
      {3, traffic(18, 66424, 70189)},
      {6, traffic(18, 101479, 105244)},
  };
  for (const auto& [k, expected] : cases) {
    SCOPED_TRACE("k " + std::to_string(k));
    const auto mirror = expect_process_matches_mirror(udg, k, seed, expected);

    // Some node has more than k leader neighbours, so its set hits the cap.
    std::vector<std::uint8_t> is_leader(static_cast<std::size_t>(udg.n()), 0);
    for (NodeId v : mirror.leaders) is_leader[static_cast<std::size_t>(v)] = 1;
    std::int32_t most = 0;
    for (NodeId v = 0; v < udg.n(); ++v) {
      std::int32_t c = 0;
      for (NodeId w : udg.graph.neighbors(v)) {
        c += is_leader[static_cast<std::size_t>(w)];
      }
      most = std::max(most, c);
    }
    EXPECT_GT(most, k);

    // Some leader halts in a round where a neighbour is still running.
    sim::SyncNetwork net(udg, seed);
    net.set_all_processes(
        [&](NodeId) { return std::make_unique<UdgKmdsProcess>(k); });
    bool early_leader_halt = false;
    while (net.round() < udg_round_budget(udg.n(), {.k = k}) && net.step()) {
      for (NodeId v = 0; v < udg.n() && !early_leader_halt; ++v) {
        const auto& p = net.process_as<UdgKmdsProcess>(v);
        if (!p.leader() || !p.halted()) continue;
        for (NodeId w : udg.graph.neighbors(v)) {
          if (!net.process_as<UdgKmdsProcess>(w).halted()) {
            early_leader_halt = true;
            break;
          }
        }
      }
    }
    // At k = 1 the Part I leaders already dominate (Lemma 5.1), so every
    // node halts in the first B2.
    EXPECT_EQ(early_leader_halt, k > 1);
  }
}

TEST(UdgParams, ExtendedHelpersReduceToDefaults) {
  for (NodeId n : {10, 100, 5000, 100000}) {
    EXPECT_EQ(udg_part1_rounds_ex(n, 1.5), udg_part1_rounds(n)) << n;
    EXPECT_DOUBLE_EQ(udg_initial_theta_ex(n, 1.5, 1.0),
                     udg_initial_theta(n))
        << n;
  }
}

TEST(UdgParams, ThetaScaleIsClampedToRadioRange) {
  for (NodeId n : {100, 10000}) {
    for (double xi : {1.2, 1.5, 2.0}) {
      const auto rounds = udg_part1_rounds_ex(n, xi);
      const double theta1 = udg_initial_theta_ex(n, xi, 100.0);  // huge
      const double theta_last =
          theta1 * std::pow(2.0, static_cast<double>(rounds - 1));
      EXPECT_LE(theta_last, 0.5 + 1e-12) << "n=" << n << " xi=" << xi;
    }
  }
}

TEST(UdgParams, SmallerXiMeansMoreRounds) {
  EXPECT_GT(udg_part1_rounds_ex(10000, 1.2), udg_part1_rounds_ex(10000, 2.0));
}

TEST(UdgKmds, NonDefaultParamsStillProduceValidSets) {
  util::Rng rng(99);
  const auto udg = geom::uniform_udg_with_degree(300, 12.0, rng);
  for (double xi : {1.2, 2.0}) {
    for (double scale : {0.5, 2.0}) {
      UdgOptions opts;
      opts.k = 2;
      opts.xi = xi;
      opts.theta_scale = scale;
      const auto result = solve_udg_kmds(udg, opts, 99);
      EXPECT_TRUE(domination::is_k_dominating(
          udg.graph, result.leaders, 2,
          domination::Mode::kOpenForNonMembers))
          << "xi=" << xi << " scale=" << scale;
    }
  }
}

TEST(UdgKmds, ProcessMatchesMirrorWithNonDefaultParams) {
  util::Rng rng(17);
  const auto udg = geom::uniform_udg_with_degree(150, 10.0, rng);
  UdgOptions opts;
  opts.k = 2;
  opts.xi = 2.0;
  opts.theta_scale = 2.0;
  const auto mirror = solve_udg_kmds(udg, opts, 17);

  sim::SyncNetwork net(udg, 17);
  const auto dist = run_udg_processes(net, opts);
  EXPECT_EQ(dist.leaders, mirror.leaders);
  EXPECT_EQ(dist.part1_leaders, mirror.part1_leaders);
  EXPECT_EQ(dist.part1_rounds, mirror.part1_rounds);
}

}  // namespace
}  // namespace ftc::algo
