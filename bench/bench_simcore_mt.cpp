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
// The `obs` column prices the observability plane. The width rows run
// detached (`off`); at threads = 1 every n also gets three plane rows:
//
//   * metrics — plane attached with every trace category masked out, so
//               only the counter/gauge/histogram path runs;
//   * trace   — plane attached with full tracing (debug severity, all
//               categories), the most expensive configuration;
//   * perf    — plane attached with the perf-attribution plane on and
//               tracing masked out: prices the phase/shard timing clocks.
//
// The perf row runs kOverheadPairs alternating off/perf pairs. Its `vs_off`
// is the median perf/off rounds/sec ratio over the pairs, with min and max;
// the budget is median >= kPerfBudget at every n, recorded as the top-level
// "perf_within_budget" (scripts/check.sh perf fails on false).
//
// The determinism contract is asserted in passing: every width and every
// plane mode must produce the exact digest of the detached single-thread
// run, or the bench exits nonzero.
//
// --sizes=1000,10000,100000,1000000  node counts
// --threads=1,2,4,8             engine widths; must start with 1 (the digest
//                               and speedup baseline), else the bench exits 1
// --degree=12                   target average UDG degree
// --rounds=0                    measured rounds per run (0 = auto:
//                               ~4M node-rounds, clamped to [5, 2000])
// --warmup=2                    unmeasured rounds before the clock starts
//                               (lets arenas/inboxes reach high-water size,
//                               so allocs/round reflects steady state)
// --json=BENCH_simcore_mt.json  machine-readable output ("" = none)
// --csv=path                    optional CSV mirror of the table
#include <algorithm>
#include <cstdint>
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
/// Alternating off/perf pairs behind the perf row's vs_off (odd, so the
/// median is one pair's ratio).
constexpr int kOverheadPairs = 7;
/// The perf-attribution budget: median paired perf/off rounds/sec.
constexpr double kPerfBudget = 0.95;

enum class Obs { kOff, kMetrics, kTrace, kPerf };

const char* obs_name(Obs mode) {
  static constexpr const char* kNames[] = {"off", "metrics", "trace", "perf"};
  return kNames[static_cast<int>(mode)];
}

/// The plane a mode attaches (nullptr for off).
std::unique_ptr<obs::Plane> plane_for(Obs mode) {
  if (mode == Obs::kOff) return nullptr;
  obs::PlaneOptions options;
  if (mode == Obs::kTrace) {
    options.trace.min_severity = obs::Severity::kDebug;
    options.trace.category_mask = obs::kAllCategories;
  } else {
    options.trace.category_mask = 0;  // registry (and perf) only
    options.perf = mode == Obs::kPerf;
  }
  return std::make_unique<obs::Plane>(options);
}

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
                   std::int64_t warmup, int threads, obs::Plane* plane) {
  sim::SyncNetwork net(udg, kNetSeed);
  net.set_threads(threads);
  if (plane != nullptr) net.set_observability(plane);
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

/// Short perf-instrumented pass for an off row's phase_attribution block.
/// Runs separately from the timed pass: with the attribution plane on,
/// every phase boundary pays clock reads, which must not pollute the
/// headline rounds/sec.
std::string run_phase_attribution(const geom::UnitDiskGraph& udg,
                                  std::int64_t rounds, int threads) {
  const auto plane = plane_for(Obs::kPerf);
  run_flood(udg, rounds, 0, threads, plane.get());
  return bench::perf_attribution_json(*plane->perf());
}

std::string json_row(NodeId n, double build_s, int threads, Obs mode,
                     const MtResult& r, double speedup, double efficiency) {
  std::string row = "    {";
  row += "\"n\": " + std::to_string(n);
  row += ", \"build_s\": " + util::fmt(build_s, 6);
  row += ", \"threads\": " + std::to_string(threads);
  row += ", \"obs\": \"" + std::string(obs_name(mode)) + "\"";
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

/// Appends `", key: value"` inside a row's closing brace.
void append_field(std::string& row, const std::string& key,
                  const std::string& value) {
  row.insert(row.size() - 1, ", \"" + key + "\": " + value);
}

}  // namespace

int run(const ftc::util::Args& args) {
  const auto sizes = args.get_int_list(
      "sizes", {1'000, 10'000, 100'000, 1'000'000}, 2, INT32_MAX);
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

  bench::Output out({"n", "build s", "threads", "obs", "rounds", "msgs/sec",
                     "words/sec", "rounds/sec", "allocs/rnd", "speedup", "eff",
                     "vs_off [min, max]"},
                    args);
  std::vector<std::string> json_rows;
  bool all_deterministic = true;
  bool perf_within_budget = true;

  for (long long n_ll : sizes) {
    const auto n = static_cast<NodeId>(n_ll);
    const std::int64_t rounds =
        rounds_arg > 0
            ? rounds_arg
            : std::clamp<std::int64_t>(4'000'000 / std::max<NodeId>(n, 1), 5,
                                       2'000);
    util::Rng graph_rng(kGraphSeed);
    const bench::WallClock build_clock;
    const geom::UnitDiskGraph udg =
        geom::uniform_udg_with_degree(n, degree, graph_rng);
    const double build_s = build_clock.seconds();

    double seq_round_seconds = 0.0;
    std::uint64_t seq_digest = 0;
    const auto timed = [&](int threads, obs::Plane* plane) {
      return run_flood(udg, warmup + rounds, warmup, threads, plane);
    };
    const auto check_digest = [&](const MtResult& r, int threads, Obs mode) {
      if (r.digest == seq_digest) return;
      std::cerr << "FATAL: digest diverged at n=" << n
                << " threads=" << threads << " obs=" << obs_name(mode)
                << " (determinism contract violated)\n";
      all_deterministic = false;
    };
    const auto emit = [&](int threads, Obs mode, const MtResult& r,
                          const std::string& vs_off_cell) {
      const double per_round = r.seconds / static_cast<double>(r.rounds);
      const double speedup = seq_round_seconds / per_round;
      // Normalize by the parallelism the machine can actually grant.
      const double efficiency = speedup / std::min(threads, std::max(hw, 1));
      out.row({util::fmt(static_cast<long long>(n)), util::fmt(build_s, 4),
               util::fmt(threads), obs_name(mode), util::fmt(r.rounds),
               util::fmt(r.messages / r.seconds, 0),
               util::fmt(r.words / r.seconds, 0),
               util::fmt(r.rounds / r.seconds, 2),
               util::fmt(r.allocs_per_round, 1), util::fmt(speedup, 2),
               util::fmt(efficiency, 2), vs_off_cell});
      json_rows.push_back(
          json_row(n, build_s, threads, mode, r, speedup, efficiency));
      return &json_rows.back();
    };

    for (const long long t_ll : widths) {
      const int threads = static_cast<int>(t_ll);
      const MtResult r = timed(threads, nullptr);
      if (threads == 1) {
        seq_round_seconds = r.seconds / static_cast<double>(r.rounds);
        seq_digest = r.digest;
      }
      check_digest(r, threads, Obs::kOff);
      // Phase attribution rides on a short perf-instrumented pass so every
      // BENCH row records where its round time goes (capped at 20 rounds —
      // run-wide means stabilize long before the timed pass's length).
      const std::int64_t perf_rounds = std::min<std::int64_t>(rounds, 20);
      append_field(*emit(threads, Obs::kOff, r, "-"), "phase_attribution",
                   run_phase_attribution(udg, perf_rounds, threads));
    }

    // The plane rows, at one thread. metrics and trace are one timed pass
    // each; their phase_attribution is the off row's.
    for (const Obs mode : {Obs::kMetrics, Obs::kTrace}) {
      const auto plane = plane_for(mode);
      const MtResult r = timed(1, plane.get());
      check_digest(r, 1, mode);
      emit(1, mode, r, "-");
    }

    // perf: alternating off/perf pairs, so slow drifts of a shared host hit
    // both halves of a pair alike; the median pair is the row.
    struct Pair {
      double ratio = 0.0;
      MtResult perf;
      std::string attribution;
    };
    std::vector<Pair> pairs;
    for (int p = 0; p < kOverheadPairs; ++p) {
      const MtResult off = timed(1, nullptr);
      check_digest(off, 1, Obs::kOff);
      const auto plane = plane_for(Obs::kPerf);
      const MtResult perf = timed(1, plane.get());
      check_digest(perf, 1, Obs::kPerf);
      // Equal round counts, so the rounds/sec ratio is a time ratio.
      pairs.push_back({off.seconds / perf.seconds, perf,
                       bench::perf_attribution_json(*plane->perf())});
    }
    std::sort(pairs.begin(), pairs.end(),
              [](const Pair& a, const Pair& b) { return a.ratio < b.ratio; });
    const Pair& median = pairs[pairs.size() / 2];
    const double lo = pairs.front().ratio;
    const double hi = pairs.back().ratio;
    if (median.ratio < kPerfBudget) perf_within_budget = false;
    std::string* row = emit(1, Obs::kPerf, median.perf,
                            util::fmt(median.ratio, 3) + " [" +
                                util::fmt(lo, 3) + ", " + util::fmt(hi, 3) +
                                "]");
    append_field(*row, "vs_off",
                 "{\"pairs\": " + std::to_string(kOverheadPairs) +
                     ", \"median\": " + util::fmt(median.ratio, 4) +
                     ", \"min\": " + util::fmt(lo, 4) +
                     ", \"max\": " + util::fmt(hi, 4) + "}");
    append_field(*row, "phase_attribution", median.attribution);
    out.rule();
  }

  out.print("MT — round engine scaling, threads x n (flood, avg degree " +
            util::fmt(degree, 1) + ", hw threads " + util::fmt(hw) + ")");
  if (!perf_within_budget) {
    std::cout << "WARNING: the perf plane's median paired rounds/sec fell "
                 "below "
              << util::fmt(kPerfBudget, 2) << " x off at some n\n";
  }

  bench::write_bench_json(
      json_path, "simcore_mt", "udg_flood_broadcast",
      {{"degree", util::fmt(degree, 1)}},
      {{"perf_budget", "\"median of " + std::to_string(kOverheadPairs) +
                           " off/perf pairs: perf >= " +
                           util::fmt(kPerfBudget, 2) + " * off\""},
       {"perf_within_budget", perf_within_budget ? "true" : "false"}},
      json_rows);
  return all_deterministic ? 0 : 1;
}

int main(int argc, char** argv) {
  return ftc::util::run_cli(argc, argv, run);
}
