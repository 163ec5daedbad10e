// P1 — Simulator core throughput (rounds/sec, messages/sec, words/sec).
//
// Measures the message plane and round engine of sim::SyncNetwork on a
// broadcast-heavy flood workload over random unit disk graphs, the shape of
// every quantitative experiment in this repo. Three engines are timed:
//
//   * legacy     — an in-bench emulation of the pre-PR message plane (one
//                  heap vector per message, per-neighbor broadcast copies,
//                  receiver-indexed queues, per-inbox std::sort, O(n)
//                  termination scan). It performs the identical per-node
//                  computation, so the ratio isolates the engine mechanics.
//   * sequential — SyncNetwork, one thread (arena messaging, sorted-merge
//                  delivery, counter-based termination).
//   * parallel   — SyncNetwork with set_threads(T): nodes sharded across a
//                  persistent thread pool, bitwise-identical results.
//
// A state digest over all per-node states is printed for each engine; the
// sequential and parallel digests must match exactly (the determinism
// contract), and the bench aborts if they do not.
//
// --sizes=1000,10000,100000  node counts
// --degree=12                target average UDG degree
// --rounds=0                 rounds per run (0 = auto: ~2M node-rounds,
//                            clamped to [20, 2000])
// --threads=0                parallel engine width (0 = hardware threads)
// --json=BENCH_simcore.json  machine-readable trajectory output ("" = none)
// --csv=path                 optional CSV mirror of the table
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "geom/udg.h"
#include "graph/graph.h"
#include "sim/network.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace ftc;
using bench::FloodProcess;
using graph::NodeId;
using sim::Word;

constexpr std::uint64_t kGraphSeed = 42;
constexpr std::uint64_t kNetSeed = 7;

struct EngineResult {
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  std::int64_t words = 0;
  double seconds = 0.0;
  std::uint64_t digest = 0;
};

/// Emulation of the pre-PR message plane, kept as the fixed baseline of the
/// perf trajectory. Mechanics mirror the seed implementation exactly: every
/// message owns a heap-allocated word vector, broadcasts deep-copy the
/// payload once per neighbor, delivery moves per-receiver queues and sorts
/// every inbox by sender, and termination is an O(n) scan over all nodes.
EngineResult run_legacy(const geom::UnitDiskGraph& udg, std::int64_t rounds) {
  struct LegacyMessage {
    NodeId from;
    std::vector<Word> words;
  };
  const graph::Graph& g = udg.graph;
  const auto n = static_cast<std::size_t>(g.n());
  std::vector<std::uint64_t> states(n, 1);
  std::vector<bool> halted(n, false);
  std::vector<util::Rng> rngs;
  rngs.reserve(n);
  const util::Rng root(kNetSeed);
  for (std::size_t v = 0; v < n; ++v) rngs.push_back(root.split(v));
  std::vector<std::vector<LegacyMessage>> inboxes(n), outboxes(n);

  EngineResult result;
  bench::WallClock clock;
  for (std::int64_t round = 0; round < rounds + 1; ++round) {
    for (std::size_t v = 0; v < n; ++v) {
      if (halted[v]) continue;
      std::int64_t acc = 0;
      for (const LegacyMessage& msg : inboxes[v]) {
        acc += msg.words[0] + msg.from;
      }
      states[v] ^= static_cast<std::uint64_t>(acc) + rngs[v]();
      const std::vector<Word> payload{static_cast<Word>(states[v] & 0xFFFF),
                                      static_cast<Word>(round)};
      for (NodeId w : g.neighbors(static_cast<NodeId>(v))) {
        result.messages += 1;
        result.words += static_cast<std::int64_t>(payload.size());
        outboxes[static_cast<std::size_t>(w)].push_back(
            {static_cast<NodeId>(v), payload});  // deep copy per neighbor
      }
      if (round + 1 >= rounds) halted[v] = true;
    }
    for (std::size_t v = 0; v < n; ++v) {
      inboxes[v] = std::move(outboxes[v]);
      outboxes[v].clear();
      std::sort(inboxes[v].begin(), inboxes[v].end(),
                [](const LegacyMessage& a, const LegacyMessage& b) {
                  return a.from < b.from;
                });
    }
    ++result.rounds;
    bool any_running = false;  // the O(n)-per-round termination scan
    for (std::size_t v = 0; v < n; ++v) {
      if (!halted[v]) {
        any_running = true;
        break;
      }
    }
    if (!any_running) break;
  }
  result.seconds = clock.seconds();
  result.digest = bench::flood_digest(states, result.messages, result.words);
  return result;
}

EngineResult run_sync(const geom::UnitDiskGraph& udg, std::int64_t rounds,
                      int threads) {
  sim::SyncNetwork net(udg, kNetSeed);
  net.set_threads(threads);
  // This bench prices the pool itself; never let the small-n fallback
  // silently swap in the sequential path (bench_simcore_mt measures that).
  net.set_parallel_grain(0);
  net.set_all_processes(
      [&](NodeId) { return std::make_unique<FloodProcess>(rounds); });
  EngineResult result;
  bench::WallClock clock;
  result.rounds = net.run(rounds + 1);
  result.seconds = clock.seconds();
  result.messages = net.metrics().messages_sent;
  result.words = net.metrics().words_sent;
  result.digest = bench::flood_digest(net);
  return result;
}

std::string json_row(NodeId n, const std::string& engine, int threads,
                     const EngineResult& r, double speedup_vs_legacy) {
  std::string row = "    {";
  row += "\"n\": " + std::to_string(n);
  row += ", \"engine\": \"" + engine + "\"";
  row += ", \"threads\": " + std::to_string(threads);
  row += ", \"rounds\": " + std::to_string(r.rounds);
  row += ", \"messages\": " + std::to_string(r.messages);
  row += ", \"seconds\": " + util::fmt(r.seconds, 6);
  row += ", \"rounds_per_sec\": " + util::fmt(r.rounds / r.seconds, 3);
  row += ", \"messages_per_sec\": " + util::fmt(r.messages / r.seconds, 1);
  row += ", \"words_per_sec\": " + util::fmt(r.words / r.seconds, 1);
  row += ", \"peak_rss_mb\": " + util::fmt(bench::peak_rss_mb(), 1);
  row += ", \"speedup_vs_legacy\": " + util::fmt(speedup_vs_legacy, 3);
  row += "}";
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto sizes =
      args.get_int_list("sizes", {1'000, 10'000, 100'000});
  const double degree = args.get_double("degree", 12.0);
  const auto rounds_arg = args.get_int("rounds", 0);
  int threads = static_cast<int>(args.get_int("threads", 0));
  if (threads <= 0) threads = util::ThreadPool::hardware_threads();
  const std::string json_path =
      args.get_string("json", "BENCH_simcore.json");

  bench::Output out({"n", "engine", "threads", "rounds", "msgs/sec",
                     "words/sec", "rounds/sec", "vs_legacy"},
                    args);
  std::vector<std::string> json_rows;

  for (long long n_ll : sizes) {
    const auto n = static_cast<NodeId>(n_ll);
    const std::int64_t rounds =
        rounds_arg > 0
            ? rounds_arg
            : std::clamp<std::int64_t>(2'000'000 / std::max<NodeId>(n, 1), 20,
                                       2'000);
    util::Rng graph_rng(kGraphSeed);
    const geom::UnitDiskGraph udg =
        geom::uniform_udg_with_degree(n, degree, graph_rng);

    const EngineResult legacy = run_legacy(udg, rounds);
    const EngineResult seq = run_sync(udg, rounds, 1);
    const EngineResult par = run_sync(udg, rounds, threads);

    if (seq.digest != par.digest) {
      std::cerr << "FATAL: sequential and parallel digests differ at n=" << n
                << " (determinism contract violated)\n";
      return 1;
    }
    if (legacy.digest != seq.digest) {
      std::cerr << "FATAL: legacy emulation diverged from SyncNetwork at n="
                << n << " (baseline is not measuring the same workload)\n";
      return 1;
    }

    struct RowSpec {
      const char* name;
      int threads;
      const EngineResult* r;
    };
    for (const RowSpec& spec :
         {RowSpec{"legacy", 1, &legacy}, RowSpec{"sequential", 1, &seq},
          RowSpec{"parallel", threads, &par}}) {
      const EngineResult& r = *spec.r;
      const double speedup = (legacy.seconds / legacy.rounds) /
                             (r.seconds / static_cast<double>(r.rounds));
      out.row({util::fmt(static_cast<long long>(n)), spec.name,
               util::fmt(spec.threads), util::fmt(r.rounds),
               util::fmt(r.messages / r.seconds, 0),
               util::fmt(r.words / r.seconds, 0),
               util::fmt(r.rounds / r.seconds, 2), util::fmt(speedup, 2)});
      json_rows.push_back(json_row(n, spec.name, spec.threads, r, speedup));
    }
    out.rule();
  }

  out.print("P1 — simulator core throughput (flood workload, avg degree " +
            util::fmt(degree, 1) + ")");

  if (!json_path.empty()) {
    std::ofstream json(json_path);
    json << "{\n  \"bench\": \"simcore\",\n"
         << "  \"workload\": \"udg_flood_broadcast\",\n"
         << "  \"degree\": " << util::fmt(degree, 1) << ",\n"
         << "  \"results\": [\n";
    for (std::size_t i = 0; i < json_rows.size(); ++i) {
      json << json_rows[i] << (i + 1 < json_rows.size() ? ",\n" : "\n");
    }
    json << "  ]\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}
