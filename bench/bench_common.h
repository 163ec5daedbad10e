// Shared scaffolding for the experiment binaries (E1..E10).
//
// Every bench binary:
//   * accepts --seeds=N (repetitions), --csv=path (machine-readable copy),
//     plus experiment-specific knobs;
//   * prints one formatted table whose rows mirror the paper claim being
//     reproduced (see DESIGN.md section 3 and EXPERIMENTS.md).
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "alloc_hooks.h"
#include "obs/metrics.h"
#include "obs/perf.h"
#include "sim/network.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace ftc::bench {

/// Upper bound of every --threads width a bench accepts.
inline constexpr long long kMaxThreads = 256;

/// Process-wide peak resident set size in MiB (0.0 where unsupported).
/// Monotonic: once a large working set has been touched, later calls keep
/// reporting it — order measurements smallest-first when per-phase peaks
/// matter.
inline double peak_rss_mb() {
#if defined(__APPLE__)
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);  // bytes
#elif defined(__unix__)
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kilobytes
#else
  return 0.0;
#endif
}

/// Monotonic stopwatch for wall-clock measurement.
class WallClock {
 public:
  WallClock() : start_(std::chrono::steady_clock::now()) {}

  /// Seconds elapsed since construction or the last restart().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  /// Resets the stopwatch and returns the elapsed seconds up to now.
  double restart() {
    const auto now = std::chrono::steady_clock::now();
    const double s = std::chrono::duration<double>(now - start_).count();
    start_ = now;
    return s;
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// JSON object for a BENCH row's "phase_attribution" key: run-wide
/// attribution pulled from an obs::PerfPlane after a perf-instrumented
/// pass. "rounds" are whatever the producer called end_round for (engine
/// rounds, LP inner iterations); phase values are mean ns per round, with
/// all-zero phases omitted to keep rows compact. bench_check.py treats the
/// whole block as a measurement (never row identity).
inline std::string perf_attribution_json(const obs::PerfPlane& perf) {
  const double rounds =
      perf.rounds() > 0 ? static_cast<double>(perf.rounds()) : 1.0;
  std::string s = "{\"rounds\": " + std::to_string(perf.rounds());
  s += ", \"coverage\": " + util::fmt(perf.attribution_coverage(), 4);
  s += ", \"imbalance_mean\": " + util::fmt(perf.mean_imbalance(), 3);
  s += ", \"imbalance_max\": " + util::fmt(perf.max_imbalance(), 3);
  s += ", \"phases_ns_per_round\": {";
  bool first = true;
  for (int p = 0; p < obs::kPerfPhaseCount; ++p) {
    const auto phase = static_cast<obs::PerfPhase>(p);
    const std::int64_t ns = perf.phase_total_ns(phase);
    if (ns == 0) continue;
    if (!first) s += ", ";
    first = false;
    s += '"';
    s += obs::perf_phase_name(phase);
    s += "\": " + util::fmt(static_cast<double>(ns) / rounds, 1);
  }
  s += "}}";
  return s;
}

/// One top-level `"key": value` pair of a BENCH file; the value is JSON
/// text.
using JsonField = std::pair<std::string, std::string>;

/// Writes a BENCH_*.json file and prints "wrote <path>": "bench" and
/// "workload", the bench's `config` keys, "hardware_threads", its
/// `verdicts`, then the "results" rows, one JSON object per line. An empty
/// path writes nothing.
inline void write_bench_json(const std::string& path, const std::string& bench,
                             const std::string& workload,
                             const std::vector<JsonField>& config,
                             const std::vector<JsonField>& verdicts,
                             const std::vector<std::string>& rows) {
  if (path.empty()) return;
  std::ofstream json(path);
  const auto field = [&](const std::string& key, const std::string& value) {
    json << "  \"" << key << "\": " << value << ",\n";
  };
  json << "{\n";
  field("bench", "\"" + bench + "\"");
  field("workload", "\"" + workload + "\"");
  for (const auto& [key, value] : config) field(key, value);
  field("hardware_threads",
        std::to_string(util::ThreadPool::hardware_threads()));
  for (const auto& [key, value] : verdicts) field(key, value);
  json << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    json << rows[i] << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  json << "  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

/// The flood engine bench's measured workload (bench_simcore_mt): every
/// round, fold the inbox into local state and broadcast two words derived
/// from it. Runs for a fixed number of rounds, so rounds/sec is a pure
/// engine measurement.
/// tests/sim/flood_reference_test.cpp pins it against a naive engine.
class FloodProcess final : public sim::Process {
 public:
  explicit FloodProcess(std::int64_t rounds) : rounds_(rounds) {}

  void on_round(sim::Context& ctx) override {
    std::int64_t acc = 0;
    for (const sim::Message& msg : ctx.inbox()) {
      acc += msg.words[0] + msg.from;
    }
    state_ ^= static_cast<std::uint64_t>(acc) + ctx.rng()();
    ctx.broadcast({static_cast<sim::Word>(state_ & 0xFFFF),
                   static_cast<sim::Word>(ctx.round())});
    if (ctx.round() + 1 >= rounds_) halt();
  }

  std::uint64_t state_ = 1;

 private:
  std::int64_t rounds_;
};

/// FNV-style digest of all node states plus the message counters; equal
/// digests mean bitwise-equal executions.
inline std::uint64_t flood_digest(std::span<const std::uint64_t> states,
                                  std::int64_t messages, std::int64_t words) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint64_t s : states) {
    h ^= s;
    h *= 1099511628211ULL;
  }
  h ^= static_cast<std::uint64_t>(messages);
  h *= 1099511628211ULL;
  h ^= static_cast<std::uint64_t>(words);
  return h;
}

/// flood_digest of a network whose every node runs FloodProcess.
inline std::uint64_t flood_digest(sim::SyncNetwork& net) {
  const graph::NodeId n = net.graph().n();
  std::vector<std::uint64_t> states;
  states.reserve(static_cast<std::size_t>(n));
  for (graph::NodeId v = 0; v < n; ++v) {
    states.push_back(net.process_as<FloodProcess>(v).state_);
  }
  return flood_digest(states, net.metrics().messages_sent,
                      net.metrics().words_sent);
}

/// Per-row metric columns sourced from an obs::Registry. Construct with the
/// registry and the metric names to surface; headers() appends one column
/// per resolved name, and cells() appends the matching values — counters
/// report the delta since the previous cells() call (so a row covering R
/// rounds divides out to a per-round rate), gauges report their current
/// value. Unknown names resolve to a "-" column instead of failing, so
/// tables stay stable across planes with different instrumentation.
class MetricColumns {
 public:
  MetricColumns(const obs::Registry* registry, std::vector<std::string> names)
      : registry_(registry), names_(std::move(names)) {
    last_.assign(names_.size(), 0);
  }

  /// Re-points the columns at another registry (nullptr = emit "-") and
  /// restarts the counter deltas.
  void attach(const obs::Registry* registry) {
    registry_ = registry;
    last_.assign(names_.size(), 0);
  }

  [[nodiscard]] std::vector<std::string> headers(
      std::vector<std::string> base) const {
    for (const std::string& name : names_) base.push_back(name);
    return base;
  }

  void cells(std::vector<std::string>& row) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      const obs::MetricId id =
          registry_ != nullptr ? registry_->find(names_[i]) : obs::kInvalidMetric;
      if (id == obs::kInvalidMetric ||
          registry_->kind(id) == obs::MetricKind::kHistogram) {
        row.push_back("-");
        continue;
      }
      const std::int64_t now = registry_->value(id);
      if (registry_->kind(id) == obs::MetricKind::kCounter) {
        row.push_back(util::fmt(static_cast<long long>(now - last_[i])));
        last_[i] = now;
      } else {
        row.push_back(util::fmt(static_cast<long long>(now)));
      }
    }
  }

 private:
  const obs::Registry* registry_;
  std::vector<std::string> names_;
  std::vector<std::int64_t> last_;
};

/// Emits the table to stdout and, when the writer is open, mirrors every
/// data row into the CSV (the caller writes rows into both).
///
/// Every table automatically gains three trailing resource columns:
///   * `wall_s`  — wall-clock seconds (steady_clock) since the previous row
///     was emitted, i.e. the cost of producing this row's measurements;
///   * `rss_mb`  — process peak resident set size in MiB at row emission
///     (monotonic across rows; see peak_rss_mb);
///   * `allocs`  — operator new calls since the previous row (global
///     counters from alloc_hooks.cpp, which every bench links).
/// Existing experiment binaries get all three without any changes.
struct Output {
  util::Table table;
  util::CsvWriter csv;
  WallClock row_clock;
  std::uint64_t last_allocs = alloc_counts().count;

  Output(std::vector<std::string> header, const util::Args& args)
      : table(with_auto_columns(header)) {
    const std::string path = args.get_string("csv", "");
    if (!path.empty()) {
      csv = util::CsvWriter(path, with_auto_columns(header));
    }
  }

  void row(std::vector<std::string> cells) {
    cells.push_back(util::fmt(row_clock.restart()));
    cells.push_back(util::fmt(peak_rss_mb(), 1));
    const std::uint64_t allocs_now = alloc_counts().count;
    cells.push_back(
        util::fmt(static_cast<long long>(allocs_now - last_allocs)));
    last_allocs = allocs_now;
    csv.write_row(cells);
    table.add_row(std::move(cells));
  }

  void rule() { table.add_rule(); }

  void print(const std::string& title) {
    table.print(std::cout, title);
    std::cout.flush();
  }

 private:
  static std::vector<std::string> with_auto_columns(
      std::vector<std::string> header) {
    header.push_back("wall_s");
    header.push_back("rss_mb");
    header.push_back("allocs");
    return header;
  }
};

}  // namespace ftc::bench
