// MT — threads×n scaling of the parallel round engine.
//
// The one bench that times the detached flood engine. Sweeps the
// shard-owned two-phase delivery engine (sim::SyncNetwork) over a grid of
// thread counts and node counts on the standard UDG flood workload, at the
// engine's SHIPPED configuration (default parallel grain, so the small-n
// auto-fallback is part of what is measured; the pool-forced path is
// checked by tests/sim/flood_reference_test.cpp). For every cell it reports
// rounds/sec, messages/sec, words/sec, peak RSS, steady-state allocations
// per round, speedup over the single-thread run of the same n, and scaling
// efficiency normalized by min(threads, hardware_threads) — oversubscribed
// widths cannot be expected to scale past the physical core count, and the
// JSON records hardware_threads so results from different machines are
// comparable.
//
// Topology ingest is timed too: `build_s` is one uniform_udg_with_degree call
// (point generation plus build_udg) per n, repeated on that n's rows.
//
// The determinism contract is asserted in passing: every width must produce
// the exact digest of the single-thread run, or the bench exits nonzero.
//
// --sizes=10000,100000,1000000  node counts
// --threads=1,2,4,8             engine widths; must start with 1 (the digest
//                               and speedup baseline), else the bench exits 1
// --degree=12                   target average UDG degree
// --rounds=0                    measured rounds per run (0 = auto:
//                               ~4M node-rounds, clamped to [5, 400])
// --warmup=2                    unmeasured rounds before the clock starts
//                               (lets arenas/inboxes reach high-water size,
//                               so allocs/round reflects steady state)
// --json=BENCH_simcore_mt.json  machine-readable output ("" = none)
// --csv=path                    optional CSV mirror of the table
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "geom/udg.h"
#include "graph/graph.h"
#include "obs/plane.h"
#include "sim/network.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace ftc;
using bench::FloodProcess;
using graph::NodeId;

constexpr std::uint64_t kGraphSeed = 42;
constexpr std::uint64_t kNetSeed = 7;

struct MtResult {
  std::int64_t rounds = 0;    // measured (post-warmup) rounds
  std::int64_t messages = 0;  // messages sent during the measured rounds
  std::int64_t words = 0;
  double seconds = 0.0;
  double rss_mb = 0.0;
  double allocs_per_round = 0.0;
  std::uint64_t digest = 0;
};

MtResult run_flood(const geom::UnitDiskGraph& udg, std::int64_t total_rounds,
                   std::int64_t warmup, int threads) {
  sim::SyncNetwork net(udg, kNetSeed);
  net.set_threads(threads);
  net.set_all_processes(
      [&](NodeId) { return std::make_unique<FloodProcess>(total_rounds); });

  // Warmup: arenas, transfer lists, and the inbox store grow to their
  // high-water marks here, so the measured section sees steady state.
  net.run(warmup);

  const auto before = net.metrics();
  const std::uint64_t allocs_before = bench::alloc_counts().count;
  bench::WallClock clock;
  MtResult result;
  result.rounds = net.run(total_rounds + 1);  // to halt detection
  result.seconds = clock.seconds();
  const std::uint64_t allocs_after = bench::alloc_counts().count;
  result.messages = net.metrics().messages_sent - before.messages_sent;
  result.words = net.metrics().words_sent - before.words_sent;
  result.allocs_per_round =
      static_cast<double>(allocs_after - allocs_before) /
      static_cast<double>(std::max<std::int64_t>(result.rounds, 1));
  result.rss_mb = bench::peak_rss_mb();
  result.digest = bench::flood_digest(net);
  return result;
}

/// Short perf-instrumented pass for the phase_attribution block. Runs
/// separately from the timed pass above: with the attribution plane on,
/// every phase boundary pays clock reads, which must not pollute the
/// headline rounds/sec.
std::string run_phase_attribution(const geom::UnitDiskGraph& udg,
                                  std::int64_t rounds, int threads) {
  obs::PlaneOptions options;
  options.trace.category_mask = 0;  // perf attribution only, no tracing
  options.perf = true;
  obs::Plane plane(options);
  plane.perf()->set_alloc_source(
      +[]() -> std::uint64_t { return bench::alloc_counts().count; });
  sim::SyncNetwork net(udg, kNetSeed);
  net.set_threads(threads);
  net.set_observability(&plane);
  net.set_all_processes(
      [&](NodeId) { return std::make_unique<FloodProcess>(rounds); });
  net.run(rounds + 1);
  return bench::perf_attribution_json(*plane.perf());
}

std::string json_row(NodeId n, double build_s, int threads, const MtResult& r,
                     double speedup, double efficiency) {
  std::string row = "    {";
  row += "\"n\": " + std::to_string(n);
  row += ", \"build_s\": " + util::fmt(build_s, 6);
  row += ", \"threads\": " + std::to_string(threads);
  row += ", \"rounds\": " + std::to_string(r.rounds);
  row += ", \"messages\": " + std::to_string(r.messages);
  row += ", \"seconds\": " + util::fmt(r.seconds, 6);
  row += ", \"rounds_per_sec\": " + util::fmt(r.rounds / r.seconds, 3);
  row += ", \"messages_per_sec\": " + util::fmt(r.messages / r.seconds, 1);
  row += ", \"words_per_sec\": " + util::fmt(r.words / r.seconds, 1);
  row += ", \"peak_rss_mb\": " + util::fmt(r.rss_mb, 1);
  row += ", \"allocs_per_round\": " + util::fmt(r.allocs_per_round, 2);
  row += ", \"speedup_vs_1t\": " + util::fmt(speedup, 3);
  row += ", \"efficiency\": " + util::fmt(efficiency, 3);
  row += "}";
  return row;
}

}  // namespace

int run(const ftc::util::Args& args) {
  const auto sizes =
      args.get_int_list("sizes", {10'000, 100'000, 1'000'000}, 2, INT32_MAX);
  const auto widths =
      args.get_int_list("threads", {1, 2, 4, 8}, 1, bench::kMaxThreads);
  const double degree = args.get_double("degree", 12.0);
  const auto rounds_arg = args.get_int("rounds", 0, 0, INT32_MAX);
  const auto warmup = args.get_int("warmup", 2, 0, INT32_MAX);
  const std::string json_path =
      args.get_string("json", "BENCH_simcore_mt.json");
  const int hw = util::ThreadPool::hardware_threads();
  if (widths.empty() || widths.front() != 1) {
    std::cerr << "bench_simcore_mt: --threads must start with 1 (the "
                 "single-thread run is the digest and speedup baseline)\n";
    return 1;
  }

  bench::Output out({"n", "build s", "threads", "rounds", "msgs/sec",
                     "words/sec", "rounds/sec", "allocs/rnd", "speedup", "eff"},
                    args);
  std::vector<std::string> json_rows;
  bool all_deterministic = true;

  for (long long n_ll : sizes) {
    const auto n = static_cast<NodeId>(n_ll);
    const std::int64_t rounds =
        rounds_arg > 0
            ? rounds_arg
            : std::clamp<std::int64_t>(4'000'000 / std::max<NodeId>(n, 1), 5,
                                       400);
    util::Rng graph_rng(kGraphSeed);
    const bench::WallClock build_clock;
    const geom::UnitDiskGraph udg =
        geom::uniform_udg_with_degree(n, degree, graph_rng);
    const double build_s = build_clock.seconds();

    double seq_round_seconds = 0.0;
    std::uint64_t seq_digest = 0;
    for (const long long t_ll : widths) {
      const int threads = static_cast<int>(t_ll);
      const MtResult r = run_flood(udg, warmup + rounds, warmup, threads);
      if (threads == 1) {
        seq_round_seconds = r.seconds / static_cast<double>(r.rounds);
        seq_digest = r.digest;
      } else if (r.digest != seq_digest) {
        std::cerr << "FATAL: digest diverged at n=" << n
                  << " threads=" << threads
                  << " (determinism contract violated)\n";
        all_deterministic = false;
      }
      const double per_round = r.seconds / static_cast<double>(r.rounds);
      const double speedup = seq_round_seconds / per_round;
      // Normalize by the parallelism the machine can actually grant.
      const double efficiency = speedup / std::min(threads, std::max(hw, 1));
      out.row({util::fmt(static_cast<long long>(n)), util::fmt(build_s, 4),
               util::fmt(threads),
               util::fmt(r.rounds), util::fmt(r.messages / r.seconds, 0),
               util::fmt(r.words / r.seconds, 0),
               util::fmt(r.rounds / r.seconds, 2),
               util::fmt(r.allocs_per_round, 1), util::fmt(speedup, 2),
               util::fmt(efficiency, 2)});
      // Phase attribution rides on a short perf-instrumented pass so every
      // BENCH row records where its round time goes (capped at 20 rounds —
      // run-wide means stabilize long before the timed pass's length).
      const std::int64_t perf_rounds = std::min<std::int64_t>(rounds, 20);
      std::string row_json =
          json_row(n, build_s, threads, r, speedup, efficiency);
      row_json.insert(row_json.size() - 1,
                      ", \"phase_attribution\": " +
                          run_phase_attribution(udg, perf_rounds, threads));
      json_rows.push_back(std::move(row_json));
    }
    out.rule();
  }

  out.print("MT — round engine scaling, threads x n (flood, avg degree " +
            util::fmt(degree, 1) + ", hw threads " + util::fmt(hw) + ")");

  if (!json_path.empty()) {
    std::ofstream json(json_path);
    json << "{\n  \"bench\": \"simcore_mt\",\n"
         << "  \"workload\": \"udg_flood_broadcast\",\n"
         << "  \"degree\": " << util::fmt(degree, 1) << ",\n"
         << "  \"hardware_threads\": " << hw << ",\n"
         << "  \"results\": [\n";
    for (std::size_t i = 0; i < json_rows.size(); ++i) {
      json << json_rows[i] << (i + 1 < json_rows.size() ? ",\n" : "\n");
    }
    json << "  ]\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return all_deterministic ? 0 : 1;
}

int main(int argc, char** argv) {
  return ftc::util::run_cli(argc, argv, run);
}
