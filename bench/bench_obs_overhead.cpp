// P8 — Observability plane overhead (rounds/sec with the plane compiled in).
//
// The obs hooks in SyncNetwork::step() and the process classes are always
// compiled in; a detached network pays one null check per round phase. This
// bench prices that, on the same flood workload as bench_simcore_mt, in
// four modes:
//
//   * off     — no plane attached (the default for every binary). This is
//               the acceptance-relevant number: scripts/check.sh perf gates
//               its rounds/sec against the committed BENCH_obs_overhead.json
//               floor, i.e. instrumenting the engine must be free when
//               unused.
//   * metrics — plane attached with every trace category masked out, so
//               only the counter/gauge/histogram path runs.
//   * trace   — plane attached with full tracing (debug severity, all
//               categories), the most expensive configuration.
//   * perf    — plane attached with the perf-attribution plane on and
//               tracing masked out: prices the phase/shard timing clocks.
//               Budget: >= 95% of the 'off' throughput; recorded as
//               "perf_within_budget" and, with --perf-gate=1, enforced by
//               the exit code (the check.sh perf fleet runs it gated).
//
// All modes execute the identical seeded workload; their state digests
// must match (attaching the plane must not perturb the simulation), and the
// best-of-`--repeats` time is used so the comparison is noise-resistant.
//
// --sizes=1000,10000          node counts
// --degree=12                 target average UDG degree
// --rounds=0                  rounds per run (0 = auto: ~2M node-rounds,
//                             clamped to [20, 2000])
// --repeats=3                 timed repetitions per mode (best is kept)
// --json=BENCH_obs_overhead.json  machine-readable output ("" = none)
// --csv=path                  optional CSV mirror of the table
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
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

enum class Mode { kOff, kMetrics, kTrace, kPerf };

struct ModeResult {
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  double seconds = 0.0;  ///< best of --repeats
  std::uint64_t digest = 0;
};

std::unique_ptr<obs::Plane> plane_for(Mode mode) {
  if (mode == Mode::kOff) return nullptr;
  obs::PlaneOptions options;
  if (mode == Mode::kMetrics) {
    options.trace.category_mask = 0;  // registry only
  } else if (mode == Mode::kPerf) {
    options.trace.category_mask = 0;  // perf attribution only
    options.perf = true;
  } else {
    options.trace.min_severity = obs::Severity::kDebug;
    options.trace.category_mask = obs::kAllCategories;
  }
  auto plane = std::make_unique<obs::Plane>(options);
  if (plane->perf() != nullptr) {
    plane->perf()->set_alloc_source(
        +[]() -> std::uint64_t { return bench::alloc_counts().count; });
  }
  return plane;
}

ModeResult run_mode(const geom::UnitDiskGraph& udg, std::int64_t rounds,
                    Mode mode, int repeats, obs::Plane** plane_out) {
  ModeResult best;
  for (int rep = 0; rep < repeats; ++rep) {
    auto plane = plane_for(mode);
    sim::SyncNetwork net(udg, kNetSeed);
    if (plane != nullptr) net.set_observability(plane.get());
    net.set_all_processes(
        [&](NodeId) { return std::make_unique<FloodProcess>(rounds); });
    bench::WallClock clock;
    const std::int64_t executed = net.run(rounds + 1);
    const double seconds = clock.seconds();
    const std::uint64_t digest = bench::flood_digest(net);
    if (rep == 0 || seconds < best.seconds) {
      best.rounds = executed;
      best.messages = net.metrics().messages_sent;
      best.seconds = seconds;
    }
    best.digest = digest;  // identical across repeats by construction
    if (plane_out != nullptr && rep == repeats - 1) {
      *plane_out = plane.release();  // caller owns; used for metric columns
    }
  }
  return best;
}

}  // namespace

int run(const ftc::util::Args& args) {
  const auto sizes = args.get_int_list("sizes", {1'000, 10'000}, 2, INT32_MAX);
  const double degree = args.get_double("degree", 12.0);
  const auto rounds_arg = args.get_int("rounds", 0, 0, INT32_MAX);
  const int repeats =
      static_cast<int>(args.get_int("repeats", 3, 1, INT32_MAX));
  const std::string json_path =
      args.get_string("json", "BENCH_obs_overhead.json");
  const bool perf_gate = args.get_bool("perf-gate", false);

  bench::MetricColumns metric_cols(
      nullptr, {"sim.messages", "sim.live_nodes"});
  bench::Output out(metric_cols.headers({"n", "mode", "rounds", "rounds/sec",
                                         "vs_off"}),
                    args);
  std::vector<std::string> json_rows;
  bool perf_within_budget = true;

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

    struct Row {
      const char* name;
      Mode mode;
      ModeResult r;
      obs::Plane* plane = nullptr;
    };
    std::vector<Row> rows = {{"off", Mode::kOff, {}, nullptr},
                             {"metrics", Mode::kMetrics, {}, nullptr},
                             {"trace", Mode::kTrace, {}, nullptr},
                             {"perf", Mode::kPerf, {}, nullptr}};
    for (Row& row : rows) {
      row.r = run_mode(udg, rounds, row.mode, repeats, &row.plane);
    }
    for (const Row& row : rows) {
      if (row.r.digest != rows[0].r.digest) {
        std::cerr << "FATAL: mode '" << row.name << "' changed the "
                  << "execution at n=" << n
                  << " (observability must be measurement-only)\n";
        return 1;
      }
    }

    const double off_rps =
        static_cast<double>(rows[0].r.rounds) / rows[0].r.seconds;
    for (Row& row : rows) {
      const double rps =
          static_cast<double>(row.r.rounds) / row.r.seconds;
      const double vs_off = rps / off_rps;
      metric_cols.attach(row.plane != nullptr ? &row.plane->metrics()
                                              : nullptr);
      std::vector<std::string> cells = {
          util::fmt(static_cast<long long>(n)), row.name,
          util::fmt(row.r.rounds), util::fmt(rps, 1), util::fmt(vs_off, 3)};
      metric_cols.cells(cells);
      out.row(std::move(cells));

      std::string json = "    {";
      json += "\"n\": " + std::to_string(n);
      json += ", \"mode\": \"" + std::string(row.name) + "\"";
      json += ", \"rounds\": " + std::to_string(row.r.rounds);
      json += ", \"seconds\": " + util::fmt(row.r.seconds, 6);
      json += ", \"rounds_per_sec\": " + util::fmt(rps, 3);
      json += ", \"vs_off\": " + util::fmt(vs_off, 4);
      if (row.mode == Mode::kPerf) {
        // The perf-on budget: phase/shard clocks must cost <= 5% of the
        // detached throughput.
        if (vs_off < 0.95) perf_within_budget = false;
        if (row.plane != nullptr && row.plane->perf() != nullptr) {
          json += ", \"phase_attribution\": " +
                  bench::perf_attribution_json(*row.plane->perf());
        }
      }
      json += "}";
      json_rows.push_back(std::move(json));
      delete row.plane;
    }
    out.rule();
  }

  out.print("P8 — observability overhead (flood workload, avg degree " +
            util::fmt(degree, 1) + ", best of " + util::fmt(repeats) +
            ")");
  if (!perf_within_budget) {
    std::cout << "WARNING: perf-attribution mode fell below 95% of the "
                 "detached ('off') throughput\n";
  }

  if (!json_path.empty()) {
    std::ofstream json(json_path);
    json << "{\n  \"bench\": \"obs_overhead\",\n"
         << "  \"workload\": \"udg_flood_broadcast\",\n"
         << "  \"degree\": " << util::fmt(degree, 1) << ",\n"
         << "  \"hardware_threads\": "
         << util::ThreadPool::hardware_threads() << ",\n"
         << "  \"perf_budget\": \"perf >= 0.95 * off\",\n"
         << "  \"perf_within_budget\": "
         << (perf_within_budget ? "true" : "false") << ",\n"
         << "  \"results\": [\n";
    for (std::size_t i = 0; i < json_rows.size(); ++i) {
      json << json_rows[i] << (i + 1 < json_rows.size() ? ",\n" : "\n");
    }
    json << "  ]\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }
  return perf_gate && !perf_within_budget ? 1 : 0;
}

int main(int argc, char** argv) {
  return ftc::util::run_cli(argc, argv, run);
}
