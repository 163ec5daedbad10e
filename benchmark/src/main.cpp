// ftc-bench: one workload of the repository benchmark per process.
//
//   ftc-bench --workload W --seed S --seconds T --trace 0|1
//             [--smoke] [--out-dir DIR] [--record FILE] [--pinned FILE]
//             [--git SHA]
//
// The run generates kInputs inputs of W from S and does one untimed warm-up
// rep on each (whose output is also checked bitwise against the library's
// reference path). Then it does timed reps of ingest + solve + verify, on
// the inputs in turn, until T seconds are used up, with a pass of the
// host-speed reference kernel every kReferenceEveryNs. Reported times are
// wall times divided by the host slowdown measured just before
// (host_speed.h).
// With --trace 1 it adds one traced rep for the per-layer metrics and
// writes its spans and PerfPlane samples under --out-dir.
//
// stdout: one "name = value unit" line per metric, a manifest line, and as
// its last line one JSON object {correct, attempted, failed, metrics}
// carrying the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). --record appends a fuller JSON line (manifest, fingerprint,
// every metric) to FILE for compare.py.
//
// Exit status: 0 ok, 1 a correctness check failed, 2 bad usage or a build
// unfit for timing, 3 the input fingerprint differs from the pinned one.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "host_speed.h"
#include "inputs.h"
#include "spans.h"
#include "workloads.h"

namespace {

using ftcbench::Check;
using ftcbench::LayerValues;
using ftcbench::Spans;

constexpr std::uint64_t kDefaultSeed = 1;
/// Inputs a run generates from its seed and solves in turn. Output metrics
/// are means over them, so one seed's luck moves them less.
constexpr int kInputs = 16;
/// Timed reps per input, at least.
constexpr int kMinReps = 3;
/// The host-speed reference runs before a rep once this much time has
/// passed since it last ran: about 5% of the run.
constexpr std::int64_t kReferenceEveryNs = 10'000'000;

#ifndef FTC_BENCH_BUILD_TYPE
#define FTC_BENCH_BUILD_TYPE "unknown"
#endif

const char* sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "address";
#elif __has_feature(thread_sanitizer)
  return "thread";
#elif __has_feature(undefined_behavior_sanitizer)
  return "undefined";
#else
  return "none";
#endif
#else
  return "none";
#endif
}

bool assertions_off() {
#ifdef NDEBUG
  return true;
#else
  return false;
#endif
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".bench_build/out";
  std::string record;
  std::string pinned;
  std::string git = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "ftc-bench: " << why
            << "\nusage: ftc-bench --workload W --seed S --seconds T --trace 0|1"
               " [--smoke] [--out-dir DIR] [--record FILE] [--pinned FILE]"
               " [--git SHA]\nworkloads:";
  for (const std::string& w : ftcbench::workload_names()) std::cerr << ' ' << w;
  std::cerr << '\n';
  std::exit(2);
}

/// Accepts "--key value" and "--key=value"; --trace and --smoke may stand
/// alone.
Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    bool has_value = false;
    if (key.rfind("--", 0) != 0) usage("unexpected argument '" + key + "'");
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
      has_value = true;
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
      has_value = true;
    }
    auto need = [&]() -> const std::string& {
      if (!has_value) usage(key + " needs a value");
      return value;
    };
    try {
      if (key == "--workload") {
        o.workload = need();
      } else if (key == "--seed") {
        o.seed = std::stoull(need());
      } else if (key == "--seconds") {
        o.seconds = std::stod(need());
      } else if (key == "--trace") {
        o.trace = !has_value || value == "1" || value == "true";
        if (has_value && value != "0" && value != "1" && value != "true" &&
            value != "false") {
          usage("--trace takes 0 or 1");
        }
      } else if (key == "--smoke") {
        o.smoke = !has_value || value == "1" || value == "true";
      } else if (key == "--out-dir") {
        o.out_dir = need();
      } else if (key == "--record") {
        o.record = need();
      } else if (key == "--pinned") {
        o.pinned = need();
      } else if (key == "--git") {
        o.git = need();
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0 && o.seconds <= 600.0)) usage("--seconds must be in (0, 600]");
  return o;
}

/// The fingerprint pinned for `key` in a {"key": "hex", ...} file, or "".
std::string pinned_fingerprint(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const std::string quoted = "\"" + key + "\"";
  const auto at = text.find(quoted);
  if (at == std::string::npos) return "";
  const auto open = text.find('"', text.find(':', at + quoted.size()));
  const auto close = text.find('"', open + 1);
  if (open == std::string::npos || close == std::string::npos) return "";
  return text.substr(open + 1, close - open - 1);
}

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) * 1024.0 / 1e6;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + num(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

/// Span names whose summed time is a per-layer share of their phase.
struct ShareOf {
  const char* span;
  const char* metric;
  const char* phase;  ///< "ingest" or "solve"
};
constexpr ShareOf kSpanShares[] = {
    {"graph.from_edges", "graph.build_share", "ingest"},
    {"geom.build_udg", "geom.build_udg_share", "ingest"},
    {"dom.clamp_demands", "dom.clamp_share", "ingest"},
    {"algo.greedy_kmds", "dyn.init_share", "ingest"},
    {"sim.world_init", "dyn.init_share", "ingest"},
    {"algo.maintainer_init", "dyn.init_share", "ingest"},
    {"sim.bringup", "sim.bringup_share", "solve"},
    {"sim.teardown", "sim.teardown_share", "solve"},
    {"algo.lp.run", "lp.run_share", "solve"},
    {"algo.rounding.run", "rounding.run_share", "solve"},
    {"algo.lp_mirror", "lpm.solve_share", "solve"},
    {"algo.rounding_mirror", "roundm.solve_share", "solve"},
    {"algo.udg.part1", "udg.part1_share", "solve"},
    {"algo.udg.part2", "udg.part2_share", "solve"},
    {"sim.world_apply", "dyn.world_apply_share", "solve"},
    {"algo.maintain", "dyn.maintain_share", "solve"},
};

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) std::cerr << "ftc-bench: could not write " << path << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const std::string build_type = FTC_BENCH_BUILD_TYPE;
  const std::string san = sanitizer();
  if (!opt.smoke && (build_type != "Release" || san != "none" || !assertions_off())) {
    std::cerr << "ftc-bench: refusing a timed run in a " << build_type
              << " build (sanitizer " << san << ", assertions "
              << (assertions_off() ? "off" : "on")
              << "); configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }

  const std::int64_t gen_t0 = ftcbench::now_ns();
  std::vector<std::unique_ptr<ftcbench::Workload>> inputs;
  ftcbench::SplitMix64 input_seeds(opt.seed);
  ftcbench::Fingerprint run_fp;
  for (int i = 0; i < kInputs; ++i) {
    inputs.push_back(ftcbench::make_workload(opt.workload, input_seeds.next(), opt.smoke));
    if (inputs.back() == nullptr) usage("unknown workload '" + opt.workload + "'");
    run_fp.add(static_cast<std::uint64_t>(std::stoull(inputs.back()->fingerprint(), nullptr, 16)));
  }
  const ftcbench::Workload& w = *inputs.front();
  const std::string fingerprint = run_fp.hex();
  const double gen_s = static_cast<double>(ftcbench::now_ns() - gen_t0) * 1e-9;

  if (opt.seed == kDefaultSeed && !opt.pinned.empty()) {
    const std::string key = (opt.smoke ? "smoke/" : "") + opt.workload;
    const std::string pinned = pinned_fingerprint(opt.pinned, key);
    if (pinned.empty()) {
      std::cerr << "ftc-bench: no pinned fingerprint for " << key << '\n';
    } else if (pinned != fingerprint) {
      std::cerr << "ftc-bench: input fingerprint " << fingerprint
                << " differs from the pinned " << pinned << " for " << key
                << " at the default seed; the generator changed\n";
      return 3;
    }
  }

  const auto hardware_threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const bool oversubscribed = w.threads() > hardware_threads;
  std::ostringstream manifest;
  manifest << "{\"git\": \"" << opt.git << "\", \"compiler\": \"" << compiler()
           << "\", \"build_type\": \"" << build_type << "\", \"sanitizer\": \"" << san
           << "\", \"assertions\": " << (assertions_off() ? "false" : "true")
           << ", \"hardware_threads\": " << hardware_threads
           << ", \"workload\": \"" << w.name() << "\", \"seed\": " << opt.seed
           << ", \"inputs\": " << kInputs << ", \"seconds\": " << num(opt.seconds)
           << ", \"trace\": " << (opt.trace ? "true" : "false")
           << ", \"smoke\": " << (opt.smoke ? "true" : "false")
           << ", \"threads\": " << w.threads()
           << ", \"oversubscribed\": " << (oversubscribed ? "true" : "false")
           << ", \"config\": " << w.config_json() << "}";

  // Warm-up reps: untimed, and the ones checked against the reference path.
  Check check;
  std::vector<double> scratch;
  for (const auto& in : inputs) {
    in->ingest();
    in->solve(scratch);
    check += in->verify(true);
  }
  // Every input has been through the whole pipeline once. Read now, the
  // peak excludes the timing samples the run keeps from here on.
  const double peak_rss = peak_rss_mb();

  // Every time below is a wall time divided by the host slowdown the
  // reference kernel measured last (host_speed.h).
  ftcbench::ReferenceKernel reference;
  std::vector<double> slowdowns;
  std::vector<double> setup_s;
  std::vector<double> solve_s;
  std::vector<double> verify_s;
  std::vector<double> op_s;
  std::vector<double> wall_setup_s;
  std::vector<double> wall_solve_s;
  const std::int64_t t_start = ftcbench::now_ns();
  std::int64_t last_reference = t_start - kReferenceEveryNs;
  const int min_reps = opt.smoke ? kInputs : kMinReps * kInputs;
  for (int rep = 0;; ++rep) {
    const std::int64_t now = ftcbench::now_ns();
    const double elapsed = static_cast<double>(now - t_start) * 1e-9;
    if (rep >= min_reps && elapsed + elapsed / rep > opt.seconds) break;
    if (now - last_reference >= kReferenceEveryNs) {
      slowdowns.push_back(reference.time_s() / ftcbench::kReferenceNominalS);
      last_reference = ftcbench::now_ns();
    }
    const double slowdown = slowdowns.back();
    ftcbench::Workload& in = *inputs[static_cast<std::size_t>(rep % kInputs)];
    const std::int64_t t0 = ftcbench::now_ns();
    in.ingest();
    const std::int64_t t1 = ftcbench::now_ns();
    const std::size_t ops_before = op_s.size();
    in.solve(op_s);
    const std::int64_t t2 = ftcbench::now_ns();
    check += in.verify(false);
    const std::int64_t t3 = ftcbench::now_ns();
    wall_setup_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    wall_solve_s.push_back(static_cast<double>(t2 - t1) * 1e-9);
    setup_s.push_back(wall_setup_s.back() / slowdown);
    solve_s.push_back(wall_solve_s.back() / slowdown);
    verify_s.push_back(static_cast<double>(t3 - t2) * 1e-9 / slowdown);
    for (std::size_t i = ops_before; i < op_s.size(); ++i) op_s[i] /= slowdown;
    if (op_s.size() == ops_before) op_s.push_back(solve_s.back());
  }
  const double measured_s = static_cast<double>(ftcbench::now_ns() - t_start) * 1e-9;
  // Output metrics are means over the inputs, each from its last solve.
  double ds_frac = 0.0;
  double rounds = 0.0;
  double msg_words = 0.0;
  for (const auto& in : inputs) {
    const ftcbench::Outcome o = in->outcome();
    ds_frac += o.set_size / o.population / kInputs;
    rounds += static_cast<double>(o.rounds) / kInputs;
    msg_words += static_cast<double>(o.msg_words) / kInputs;
  }

  std::vector<Metric> e2e = {
      {"solve_s", median(op_s), "s"},
      {"setup_s", median(setup_s), "s"},
      {"items_per_s", w.items() / median(solve_s), "1/s"},
      {"peak_rss_mb", peak_rss, "MB"},
      {"ds_frac", ds_frac, "share"},
  };
  // Exact counts, wall times and the ungated tail, recorded for compare.py.
  // They are not in BENCHMARK.json: the counts are 0 without a simulated
  // network, and the wall times carry the host's drift.
  std::vector<Metric> extra = {
      {"rounds", rounds, "count"},
      {"msg_words", msg_words, "count"},
      {"host_slowdown", median(slowdowns), "ratio"},
      {"wall_solve_s", median(wall_solve_s), "s"},
      {"wall_setup_s", median(wall_setup_s), "s"},
      {"verify_s", median(verify_s), "s"},
      {"gen_s", gen_s, "s"},
      {"samples", static_cast<double>(op_s.size()), "count"},
      {"reps", static_cast<double>(solve_s.size()), "count"},
  };
  // Highest percentile with at least ten samples beyond it.
  for (const auto& [q, name] : {std::pair{0.999, "solve_p999_s"},
                                std::pair{0.99, "solve_p99_s"},
                                std::pair{0.9, "solve_p90_s"}}) {
    if ((1.0 - q) * static_cast<double>(op_s.size()) >= 10.0) {
      extra.push_back({name, quantile(op_s, q), "s"});
      break;
    }
  }

  std::vector<Metric> layer;
  if (opt.trace) {
    LayerValues lv;
    for (const auto& m : ftcbench::layer_metrics()) lv[m.name] = 0.0;
    // The traced rep solves the first input again; its untraced reps are
    // every kInputs-th.
    std::vector<double> first_input_solve_s;
    for (std::size_t i = 0; i < solve_s.size(); i += kInputs) {
      first_input_solve_s.push_back(solve_s[i]);
    }
    const double slowdown = reference.time_s() / ftcbench::kReferenceNominalS;
    Spans sp(static_cast<std::int32_t>(solve_s.size()) + 1);
    const std::int32_t rep_id = sp.open("rep");
    check += inputs.front()->traced(sp, lv);
    sp.close(rep_id);

    const double ingest_total = sp.total_s("ingest");
    const double solve_total = sp.total_s("solve");
    for (const ShareOf& s : kSpanShares) {
      const double base = std::string_view(s.phase) == "ingest" ? ingest_total : solve_total;
      lv[s.metric] += sp.total_s(s.span) / base;
    }
    std::int32_t solve_id = -1;
    for (std::size_t i = 0; i < sp.spans().size(); ++i) {
      if (std::string_view(sp.spans()[i].name) == "solve") {
        solve_id = static_cast<std::int32_t>(i);
      }
    }
    lv["trace.ingest_s"] = ingest_total / slowdown;
    lv["trace.solve_s"] = solve_total / slowdown;
    lv["dom.verify_s"] = sp.total_s("dom.verify") / slowdown;
    lv["trace.child_coverage"] = solve_id >= 0 ? sp.child_coverage(solve_id) : 0.0;
    lv["obs.trace_overhead"] = solve_total / slowdown / median(first_input_solve_s);
    if (lv["trace.child_coverage"] < 0.95) {
      std::cerr << "ftc-bench: child spans cover only "
                << lv["trace.child_coverage"] << " of the solve span\n";
    }
    for (const auto& m : ftcbench::layer_metrics()) {
      layer.push_back({m.name, lv[m.name], m.unit});
    }

    std::error_code ec;
    const std::filesystem::path dir(opt.out_dir);
    std::filesystem::create_directories(dir, ec);
    std::ostringstream spans;
    sp.write_jsonl(spans);
    write_file(dir / (opt.workload + ".trace.jsonl"), spans.str());
    write_file(dir / (opt.workload + ".perf.jsonl"), w.perf_jsonl());
  }

  const bool correct = check.failed == 0;
  const std::vector<Metric>& reported = opt.trace ? layer : e2e;

  std::cout << "workload " << w.name() << "  seed " << opt.seed << "  fingerprint "
            << fingerprint << "  reps " << solve_s.size() << " in "
            << num(measured_s) << " s"
            << (oversubscribed ? "  [oversubscribed: timings ungated]" : "") << '\n';
  for (const auto* group : {&e2e, &extra, &layer}) {
    for (const Metric& m : *group) {
      std::cout << "  " << m.name << " = " << num(m.value) << ' ' << m.unit << '\n';
    }
  }
  std::cout << "manifest " << manifest.str() << '\n';

  if (!opt.record.empty()) {
    std::vector<Metric> all = e2e;
    all.insert(all.end(), extra.begin(), extra.end());
    std::ofstream rec(opt.record, std::ios::app);
    rec << "{\"manifest\": " << manifest.str() << ", \"fingerprint\": \""
        << fingerprint << "\", \"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << check.attempted << ", \"failed\": " << check.failed
        << ", \"metrics\": " << metrics_json(all)
        << ", \"per_layer\": " << metrics_json(layer) << "}\n";
  }

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << check.attempted << ", \"failed\": " << check.failed
            << ", \"metrics\": " << metrics_json(reported) << "}" << std::endl;
  return correct ? 0 : 1;
}
