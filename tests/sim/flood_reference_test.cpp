// Flood reference: the engine benches' workload (bench::FloodProcess on a
// degree-12 UDG, graph seed 42, network seed 7) run through SyncNetwork must
// compute exactly what a naive message plane computes. The naive engine
// below is the simplest correct implementation of the synchronous round
// model: one heap vector per message, a payload copy per neighbour,
// receiver-indexed queues, a sort per inbox, and an O(n) termination scan.
// Per-node states and the message/word counters must agree at widths
// {1, 3, 8} with the pool forced on (set_parallel_grain(0)) and at width 3
// with the shipped grain.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "geom/udg.h"
#include "sim/network.h"
#include "util/rng.h"

namespace ftc::sim {
namespace {

using graph::NodeId;

constexpr std::uint64_t kGraphSeed = 42;
constexpr std::uint64_t kNetSeed = 7;
constexpr double kDegree = 12.0;
constexpr std::int64_t kRounds = 25;
constexpr NodeId kSizes[] = {500, 2000};

struct FloodOutcome {
  std::vector<std::uint64_t> states;
  std::int64_t messages = 0;
  std::int64_t words = 0;
};

/// Runs FloodProcess's computation for `rounds` rounds on a naive message
/// plane, with the same per-node RNG streams SyncNetwork hands out.
FloodOutcome run_naive(const graph::Graph& g, std::int64_t rounds) {
  struct NaiveMessage {
    NodeId from;
    std::vector<Word> words;
  };
  const auto n = static_cast<std::size_t>(g.n());
  FloodOutcome out;
  out.states.assign(n, 1);
  std::vector<bool> halted(n, false);
  std::vector<util::Rng> rngs;
  rngs.reserve(n);
  const util::Rng root(kNetSeed);
  for (std::size_t v = 0; v < n; ++v) rngs.push_back(root.split(v));
  std::vector<std::vector<NaiveMessage>> inboxes(n), outboxes(n);

  for (std::int64_t round = 0; round < rounds + 1; ++round) {
    for (std::size_t v = 0; v < n; ++v) {
      if (halted[v]) continue;
      std::int64_t acc = 0;
      for (const NaiveMessage& msg : inboxes[v]) {
        acc += msg.words[0] + msg.from;
      }
      out.states[v] ^= static_cast<std::uint64_t>(acc) + rngs[v]();
      const std::vector<Word> payload{
          static_cast<Word>(out.states[v] & 0xFFFF), static_cast<Word>(round)};
      for (NodeId w : g.neighbors(static_cast<NodeId>(v))) {
        out.messages += 1;
        out.words += static_cast<std::int64_t>(payload.size());
        outboxes[static_cast<std::size_t>(w)].push_back(
            {static_cast<NodeId>(v), payload});
      }
      if (round + 1 >= rounds) halted[v] = true;
    }
    for (std::size_t v = 0; v < n; ++v) {
      inboxes[v] = std::move(outboxes[v]);
      outboxes[v].clear();
      std::sort(inboxes[v].begin(), inboxes[v].end(),
                [](const NaiveMessage& a, const NaiveMessage& b) {
                  return a.from < b.from;
                });
    }
    if (std::all_of(halted.begin(), halted.end(), [](bool h) { return h; })) {
      break;
    }
  }
  return out;
}

FloodOutcome run_engine(const graph::Graph& g, std::int64_t rounds,
                        int threads, bool force_pool) {
  SyncNetwork net(g, kNetSeed);
  net.set_threads(threads);
  if (force_pool) net.set_parallel_grain(0);
  net.set_all_processes(
      [&](NodeId) { return std::make_unique<bench::FloodProcess>(rounds); });
  net.run(rounds + 1);
  FloodOutcome out;
  for (NodeId v = 0; v < g.n(); ++v) {
    out.states.push_back(net.process_as<bench::FloodProcess>(v).state_);
  }
  out.messages = net.metrics().messages_sent;
  out.words = net.metrics().words_sent;
  return out;
}

struct EngineConfig {
  int threads;
  bool force_pool;
};

void PrintTo(const EngineConfig& config, std::ostream* os) {
  *os << config.threads << " threads, "
      << (config.force_pool ? "grain 0" : "default grain");
}

class FloodReference : public ::testing::TestWithParam<EngineConfig> {};

TEST_P(FloodReference, MatchesNaiveEngine) {
  const EngineConfig config = GetParam();
  for (const NodeId n : kSizes) {
    util::Rng graph_rng(kGraphSeed);
    const graph::Graph g =
        geom::uniform_udg_with_degree(n, kDegree, graph_rng).graph;
    const FloodOutcome naive = run_naive(g, kRounds);
    const FloodOutcome engine =
        run_engine(g, kRounds, config.threads, config.force_pool);
    ASSERT_GT(naive.messages, 0) << "n " << n;
    EXPECT_EQ(engine.messages, naive.messages) << "n " << n;
    EXPECT_EQ(engine.words, naive.words) << "n " << n;
    ASSERT_EQ(engine.states.size(), naive.states.size());
    for (std::size_t v = 0; v < naive.states.size(); ++v) {
      ASSERT_EQ(engine.states[v], naive.states[v])
          << "n " << n << ", first differing node " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Widths, FloodReference,
    ::testing::Values(EngineConfig{1, true}, EngineConfig{3, true},
                      EngineConfig{8, true}, EngineConfig{3, false}),
    [](const ::testing::TestParamInfo<EngineConfig>& info) {
      return "threads" + std::to_string(info.param.threads) +
             (info.param.force_pool ? "_grain0" : "_default_grain");
    });

}  // namespace
}  // namespace ftc::sim
