#include "util/cli.h"

#include <cstdio>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string_view>

namespace ftc::util {

namespace {

/// Runs `parse` (a std::stoll-style call taking the end-position out
/// parameter) over all of `raw`. Nullopt when it throws or leaves trailing
/// characters, so "12abc" is rejected instead of read as 12.
template <typename Parse>
auto parse_whole(const std::string& raw, Parse parse)
    -> std::optional<decltype(parse(raw, nullptr))> {
  std::size_t used = 0;
  try {
    const auto value = parse(raw, &used);
    if (used == raw.size()) return value;
  } catch (const std::exception&) {
  }
  return std::nullopt;
}

long long to_ll(const std::string& s, std::size_t* used) {
  return std::stoll(s, used);
}
unsigned long long to_ull(const std::string& s, std::size_t* used) {
  return std::stoull(s, used);
}
double to_d(const std::string& s, std::size_t* used) {
  return std::stod(s, used);
}

}  // namespace

Args::Args(int argc, const char* const* argv) {
  program_ = argc > 0 ? argv[0] : "";
  // Parsed through string_view: building key and value from std::string
  // substr copies trips GCC 12's -Wrestrict false positive in libstdc++.
  // With no '=', eq - 2 is past the end and the key runs to it.
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with("--")) {
      const auto eq = arg.find('=');
      const std::string_view value =
          eq == std::string_view::npos ? "1" : arg.substr(eq + 1);
      values_.insert_or_assign(std::string(arg.substr(2, eq - 2)),
                               std::string(value));
    } else {
      positional_.emplace_back(arg);
    }
  }
}

bool Args::has(const std::string& key) const {
  return values_.count(key) != 0;
}

std::optional<std::string> Args::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Args::get_string(const std::string& key,
                             const std::string& fallback) const {
  return get(key).value_or(fallback);
}

long long Args::get_int(const std::string& key, long long fallback,
                        long long lo, long long hi) const {
  long long value = fallback;
  if (const auto raw = get(key)) {
    const auto parsed = parse_whole(*raw, to_ll);
    if (!parsed) {
      throw std::invalid_argument("--" + key + "=" + *raw +
                                  ": not an integer");
    }
    value = *parsed;
  }
  if (value < lo || value > hi) {
    throw std::invalid_argument("--" + key + "=" + std::to_string(value) +
                                ": must be in [" + std::to_string(lo) + ", " +
                                std::to_string(hi) + "]");
  }
  return value;
}

int run_cli(int argc, const char* const* argv, int (*run)(const Args&)) {
  const Args args(argc, argv);
  try {
    return run(args);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", args.program().c_str(), e.what());
    return 2;
  }
}

double Args::get_double(const std::string& key, double fallback) const {
  const auto raw = get(key);
  if (!raw) return fallback;
  if (const auto value = parse_whole(*raw, to_d)) return *value;
  throw std::invalid_argument("--" + key + "=" + *raw + ": not a number");
}

bool Args::get_bool(const std::string& key, bool fallback) const {
  const auto raw = get(key);
  if (!raw) return fallback;
  if (*raw == "1" || *raw == "true" || *raw == "yes" || *raw == "on") {
    return true;
  }
  if (*raw == "0" || *raw == "false" || *raw == "no" || *raw == "off") {
    return false;
  }
  throw std::invalid_argument("--" + key + "=" + *raw + ": not a boolean");
}

std::uint64_t Args::get_u64(const std::string& key,
                            std::uint64_t fallback) const {
  const auto raw = get(key);
  if (!raw) return fallback;
  // std::stoull accepts "-1" and wraps it to 2^64 - 1.
  if (raw->find('-') == std::string::npos) {
    if (const auto value = parse_whole(*raw, to_ull)) return *value;
  }
  throw std::invalid_argument("--" + key + "=" + *raw +
                              ": not an unsigned integer");
}

std::vector<long long> Args::get_int_list(const std::string& key,
                                          std::vector<long long> fallback,
                                          long long lo, long long hi) const {
  const auto raw = get(key);
  if (!raw) return fallback;
  std::vector<long long> out;
  std::string token;
  for (std::size_t i = 0; i <= raw->size(); ++i) {
    if (i == raw->size() || (*raw)[i] == ',') {
      if (!token.empty()) {
        const auto value = parse_whole(token, to_ll);
        if (!value) {
          throw std::invalid_argument("--" + key + ": bad element '" + token +
                                      "'");
        }
        if (*value < lo || *value > hi) {
          throw std::invalid_argument(
              "--" + key + ": element " + token + " must be in [" +
              std::to_string(lo) + ", " + std::to_string(hi) + "]");
        }
        out.push_back(*value);
        token.clear();
      }
    } else {
      token += (*raw)[i];
    }
  }
  return out;
}

ObsFlags parse_obs_flags(const Args& args) {
  ObsFlags flags;
  flags.trace_path = args.get_string("trace", "");
  flags.metrics_path = args.get_string("metrics", "");
  flags.categories = args.get_string("trace-categories", "");
  flags.severity = args.get_string("trace-severity", "");
  flags.capacity = args.get_int("trace-capacity", flags.capacity, 1,
                                std::numeric_limits<long long>::max());
  if (args.has("perf")) {
    flags.perf = true;
    // Bare `--perf` parses as value "1"; treat that as "default path".
    const std::string path = args.get_string("perf", "");
    flags.perf_path = (path.empty() || path == "1") ? "perf.jsonl" : path;
  }
  return flags;
}

}  // namespace ftc::util
