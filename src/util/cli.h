// Tiny command-line argument parser used by the bench and example binaries.
//
// Supported syntax: `--key=value`, `--flag` (value "1"), and positional
// arguments. Unknown keys are collected verbatim so binaries can reject or
// warn about typos.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ftc::util {

/// Parsed command line. Construct from main()'s argc/argv, then query typed
/// values with a default:
///
///   Args args(argc, argv);
///   const int n = static_cast<int>(args.get_int("n", 1000, 1, INT32_MAX));
///   const std::string csv = args.get_string("csv", "");
class Args {
 public:
  Args(int argc, const char* const* argv);

  /// True if --key (with or without a value) appeared.
  [[nodiscard]] bool has(const std::string& key) const;

  /// Raw string value of --key=value, or nullopt if absent.
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;

  /// Typed getters returning `fallback` when the key is absent. Throws
  /// std::invalid_argument when the key is present but unparsable.
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  /// Also throws std::invalid_argument (naming the flag and the range) when
  /// the value lies outside [lo, hi], so an out-of-range flag is rejected
  /// instead of truncated by the caller's narrowing cast.
  [[nodiscard]] long long get_int(const std::string& key, long long fallback,
                                  long long lo, long long hi) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t fallback) const;

  /// Parses a comma-separated list of integers ("1,2,5"), or `fallback` when
  /// the key is absent. Like get_int, throws std::invalid_argument (naming
  /// the flag, the element and the range) when an element is unparsable or
  /// lies outside [lo, hi].
  [[nodiscard]] std::vector<long long> get_int_list(
      const std::string& key, std::vector<long long> fallback, long long lo,
      long long hi) const;

  /// Positional (non --key) arguments, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Program name (argv[0]).
  [[nodiscard]] const std::string& program() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// Runs `run` on the parsed command line and returns its exit status. A
/// std::invalid_argument from it (a malformed or out-of-range flag) is
/// printed as "<argv[0]>: <message>" and turns into exit status 2, so a bad
/// flag never aborts the program.
int run_cli(int argc, const char* const* argv, int (*run)(const Args&));

/// The --trace / --metrics flag group shared by bench, example, and tool
/// binaries (consumed by obs::make_plane / obs::export_plane):
///
///   --trace=FILE            Chrome trace_event file at FILE plus the
///                           deterministic JSONL stream at FILE.jsonl
///                           (FILE ending in .jsonl writes JSONL only)
///   --metrics=FILE          metric registry dumped as JSON
///   --trace-categories=a,b  engine,message,fault,detector,repair,algo,user
///                           (default: all)
///   --trace-severity=S      debug | info | warn | error (default: debug)
///   --trace-capacity=N      trace ring capacity in events (N >= 1)
///   --perf[=FILE]           perf-attribution plane: per-phase/per-shard
///                           round timing, imbalance + straggler telemetry,
///                           written as JSONL to FILE (default perf.jsonl;
///                           analyze with ftc-trace phases/imbalance/report)
///
/// Kept here as plain strings so the flag syntax lives with the parser and
/// util stays below obs in the layering.
struct ObsFlags {
  std::string trace_path;
  std::string metrics_path;
  std::string categories;
  std::string severity;
  long long capacity = 1 << 18;
  bool perf = false;
  std::string perf_path;

  /// True when any output was requested (observability should be attached).
  [[nodiscard]] bool enabled() const noexcept {
    return !trace_path.empty() || !metrics_path.empty() || perf;
  }
};

/// Extracts the flag group from parsed arguments.
[[nodiscard]] ObsFlags parse_obs_flags(const Args& args);

}  // namespace ftc::util
