// ftc-trace — inspect the JSONL streams written by --trace / --perf and the
// --metrics registry dump.
//
//   ftc-trace summary soak.trace.jsonl
//   ftc-trace dump soak.trace.jsonl [--cat=repair] [--sev=info]
//                                   [--node=17] [--from=100] [--to=200]
//                                   [--limit=50]
//   ftc-trace phases soak.perf.jsonl
//   ftc-trace imbalance soak.perf.jsonl [--top=5]
//   ftc-trace report soak.perf.jsonl [--out=perf_report.html]
//   ftc-trace summarize soak_metrics.json
//
// The trace JSONL stream holds logical fields only (DESIGN.md §7), so
// everything `summary`/`dump` print is bitwise reproducible across runs
// and thread counts. The perf JSONL (obs/perf.h, written by --perf) is the
// one wall-clock record: `phases` renders the run-wide per-phase
// attribution table, `imbalance` the per-shard heatmap and straggler
// report, and `report` a self-contained HTML page with phase stacks and
// the imbalance timeline. `summarize`
// renders a --metrics registry dump with histogram percentiles
// (p50/p90/p99, linear interpolation within buckets) instead of the raw
// bounds/counts arrays.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "obs/perf.h"
#include "obs/trace.h"
#include "util/cli.h"

namespace {

using namespace ftc;

// ---------------------------------------------------------------------------
// Shared string-scan JSON extraction (the exporters write a fixed format;
// a full JSON parser would be dead weight here).

/// Extracts `"key":<integer>` from the fixed exporter format.
bool get_ll(const std::string& s, const std::string& key, long long& out) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = s.find(needle);
  if (pos == std::string::npos) return false;
  try {
    out = std::stoll(s.substr(pos + needle.size()));
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

/// Extracts `"key":<number>` as a double (perf ratios are fractional).
bool get_dbl(const std::string& s, const std::string& key, double& out) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = s.find(needle);
  if (pos == std::string::npos) return false;
  try {
    out = std::stod(s.substr(pos + needle.size()));
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

/// Extracts `"key":"<string>"`.
bool get_str(const std::string& s, const std::string& key, std::string& out) {
  const std::string needle = "\"" + key + "\":\"";
  const auto pos = s.find(needle);
  if (pos == std::string::npos) return false;
  const auto begin = pos + needle.size();
  const auto end = s.find('"', begin);
  if (end == std::string::npos) return false;
  out = s.substr(begin, end - begin);
  return true;
}

/// Body of the flat object `"key":{...}` (no nested braces inside).
bool get_obj(const std::string& s, const std::string& key, std::string& out) {
  const std::string needle = "\"" + key + "\":{";
  const auto pos = s.find(needle);
  if (pos == std::string::npos) return false;
  const auto begin = pos + needle.size();
  const auto end = s.find('}', begin);
  if (end == std::string::npos) return false;
  out = s.substr(begin, end - begin);
  return true;
}

/// Body of the array `"key":[...]` whose elements are flat objects.
bool get_arr(const std::string& s, const std::string& key, std::string& out) {
  const std::string needle = "\"" + key + "\":[";
  const auto pos = s.find(needle);
  if (pos == std::string::npos) return false;
  const auto begin = pos + needle.size();
  const auto end = s.find(']', begin);
  if (end == std::string::npos) return false;
  out = s.substr(begin, end - begin);
  return true;
}

/// Splits "{...},{...}" into its flat-object bodies.
std::vector<std::string> split_objects(const std::string& arr) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while ((pos = arr.find('{', pos)) != std::string::npos) {
    const auto end = arr.find('}', pos);
    if (end == std::string::npos) break;
    out.push_back(arr.substr(pos, end - pos + 1));
    pos = end + 1;
  }
  return out;
}

/// Parses a flat `"name":int` object body into ordered pairs.
std::vector<std::pair<std::string, long long>> parse_kv(
    const std::string& body) {
  std::vector<std::pair<std::string, long long>> out;
  std::size_t pos = 0;
  while ((pos = body.find('"', pos)) != std::string::npos) {
    const auto name_end = body.find('"', pos + 1);
    if (name_end == std::string::npos) break;
    const std::string name = body.substr(pos + 1, name_end - pos - 1);
    const auto colon = body.find(':', name_end);
    if (colon == std::string::npos) break;
    try {
      out.emplace_back(name, std::stoll(body.substr(colon + 1)));
    } catch (const std::exception&) {
      break;
    }
    pos = body.find(',', colon);
    if (pos == std::string::npos) break;
  }
  return out;
}

std::string fmt_ns(double ns) {
  char buf[64];
  if (ns >= 1e9) {
    std::snprintf(buf, sizeof(buf), "%.2fs", ns / 1e9);
  } else if (ns >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fms", ns / 1e6);
  } else if (ns >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.2fus", ns / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%lldns",
                  static_cast<long long>(std::llround(ns)));
  }
  return buf;
}

/// True when `name` is one of PerfPlane's top-level (coverage-counted)
/// phases; nested/overlapping ones are reported but excluded from coverage.
bool phase_is_top_level(const std::string& name) {
  for (int p = 0; p < obs::kPerfPhaseCount; ++p) {
    const auto phase = static_cast<obs::PerfPhase>(p);
    if (obs::perf_phase_name(phase) == name) {
      return obs::perf_phase_top_level(phase);
    }
  }
  return true;  // unknown names count as top-level (forward compat)
}

// ---------------------------------------------------------------------------
// Trace JSONL model (obs/trace.h exporter).

/// One parsed trace record. Only the fields the exporter writes.
struct Line {
  long long round = 0;
  long long node = -1;
  std::string cat;
  std::string sev;
  std::string name;
  long long a0 = 0;
  long long a1 = 0;
};

bool parse_line(const std::string& s, Line& out) {
  return get_ll(s, "round", out.round) && get_ll(s, "node", out.node) &&
         get_str(s, "cat", out.cat) && get_str(s, "sev", out.sev) &&
         get_str(s, "name", out.name) && get_ll(s, "a0", out.a0) &&
         get_ll(s, "a1", out.a1);
}

// ---------------------------------------------------------------------------
// Perf JSONL model (obs::PerfPlane::export_jsonl).

struct PerfShardRow {
  long long shard = 0;
  long long compute_ns = 0;
  long long deliver_count_ns = 0;
  long long deliver_place_ns = 0;
  long long channel_decide_ns = 0;
  long long busy_ns = 0;
  long long nodes = 0;
  long long messages = 0;
  long long straggler_rounds = 0;  // summary shard_totals only
};

struct PerfRound {
  long long round = 0;
  long long total_ns = 0;
  long long attributed_ns = 0;
  double imbalance = 1.0;
  long long straggler = -1;
  std::vector<PerfShardRow> shards;
};

struct PerfFile {
  std::vector<PerfRound> rounds;
  bool have_summary = false;
  long long total_rounds = 0;
  long long retained = 0;
  long long shards = 0;
  long long total_ns = 0;
  double coverage = 0.0;
  double imb_mean = 0.0;
  double imb_max = 0.0;
  std::vector<std::pair<std::string, long long>> phases;  // run-wide totals
  std::vector<PerfShardRow> shard_totals;
};

bool parse_shard_row(const std::string& s, PerfShardRow& out) {
  if (!get_ll(s, "shard", out.shard)) return false;
  get_ll(s, "compute_ns", out.compute_ns);
  get_ll(s, "deliver_count_ns", out.deliver_count_ns);
  get_ll(s, "deliver_place_ns", out.deliver_place_ns);
  get_ll(s, "channel_decide_ns", out.channel_decide_ns);
  get_ll(s, "busy_ns", out.busy_ns);
  get_ll(s, "nodes", out.nodes);
  get_ll(s, "messages", out.messages);
  get_ll(s, "straggler_rounds", out.straggler_rounds);
  return true;
}

bool load_perf(const std::string& path, PerfFile& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::string raw;
  while (std::getline(in, raw)) {
    if (raw.empty()) continue;
    std::string type;
    if (!get_str(raw, "type", type)) continue;
    if (type == "round") {
      PerfRound r;
      get_ll(raw, "round", r.round);
      get_ll(raw, "total_ns", r.total_ns);
      get_ll(raw, "attributed_ns", r.attributed_ns);
      get_dbl(raw, "imbalance", r.imbalance);
      get_ll(raw, "straggler", r.straggler);
      std::string arr;
      if (get_arr(raw, "shards", arr)) {
        for (const std::string& obj : split_objects(arr)) {
          PerfShardRow row;
          if (parse_shard_row(obj, row)) r.shards.push_back(row);
        }
      }
      out.rounds.push_back(std::move(r));
    } else if (type == "summary") {
      out.have_summary = true;
      get_ll(raw, "rounds", out.total_rounds);
      get_ll(raw, "retained", out.retained);
      get_ll(raw, "shards", out.shards);
      get_ll(raw, "total_ns", out.total_ns);
      get_dbl(raw, "coverage", out.coverage);
      get_dbl(raw, "imbalance_mean", out.imb_mean);
      get_dbl(raw, "imbalance_max", out.imb_max);
      std::string body;
      if (get_obj(raw, "phases", body)) out.phases = parse_kv(body);
      if (get_arr(raw, "shard_totals", body)) {
        for (const std::string& obj : split_objects(body)) {
          PerfShardRow row;
          if (parse_shard_row(obj, row)) out.shard_totals.push_back(row);
        }
      }
    }
  }
  if (!out.have_summary) {
    std::fprintf(stderr, "%s: no summary record (is this a --perf JSONL?)\n",
                 path.c_str());
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// `phases` — run-wide per-phase attribution table.

int run_phases(const std::string& path) {
  PerfFile pf;
  if (!load_perf(path, pf)) return 1;
  std::printf("%s: %lld rounds (%lld retained), %lld shards, wall %s\n",
              path.c_str(), pf.total_rounds, pf.retained, pf.shards,
              fmt_ns(static_cast<double>(pf.total_ns)).c_str());
  std::printf(
      "coverage: %.1f%% of wall time attributed to top-level phases\n",
      pf.coverage * 100.0);

  const double rounds =
      pf.total_rounds > 0 ? static_cast<double>(pf.total_rounds) : 1.0;
  auto print_section = [&](const char* title, bool top_level) {
    std::vector<std::pair<std::string, long long>> rows;
    for (const auto& [name, ns] : pf.phases) {
      if (ns > 0 && phase_is_top_level(name) == top_level) {
        rows.emplace_back(name, ns);
      }
    }
    if (rows.empty()) return;
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    std::printf("%s\n", title);
    std::printf("  %-16s %12s %8s %12s\n", "phase", "total", "%wall",
                "per-round");
    for (const auto& [name, ns] : rows) {
      const double pct = pf.total_ns > 0
                             ? 100.0 * static_cast<double>(ns) /
                                   static_cast<double>(pf.total_ns)
                             : 0.0;
      std::printf("  %-16s %12s %7.1f%% %12s\n", name.c_str(),
                  fmt_ns(static_cast<double>(ns)).c_str(), pct,
                  fmt_ns(static_cast<double>(ns) / rounds).c_str());
    }
  };
  print_section("top-level phases (disjoint; sum = attributed time):", true);
  print_section("nested/overlapping (excluded from coverage):", false);

  long long attributed = 0;
  for (const auto& [name, ns] : pf.phases) {
    if (phase_is_top_level(name)) attributed += ns;
  }
  const long long unattributed = pf.total_ns - attributed;
  if (pf.total_ns > 0) {
    std::printf("unattributed: %s (%.1f%%)\n",
                fmt_ns(static_cast<double>(unattributed)).c_str(),
                100.0 * static_cast<double>(unattributed) /
                    static_cast<double>(pf.total_ns));
  }
  return 0;
}

// ---------------------------------------------------------------------------
// `imbalance` — per-shard heatmap over the retained rounds + stragglers.

int run_imbalance(const std::string& path, long long top_k) {
  PerfFile pf;
  if (!load_perf(path, pf)) return 1;
  std::printf("%s: %lld rounds, %lld shards\n", path.c_str(), pf.total_rounds,
              pf.shards);
  std::printf("imbalance (max/mean shard busy): mean %.3f, worst %.3f\n",
              pf.imb_mean, pf.imb_max);

  // Straggler report: shards ranked by how often they were the round's
  // slowest, ties broken by total busy time.
  std::vector<PerfShardRow> ranked = pf.shard_totals;
  std::sort(ranked.begin(), ranked.end(),
            [](const PerfShardRow& a, const PerfShardRow& b) {
              if (a.straggler_rounds != b.straggler_rounds) {
                return a.straggler_rounds > b.straggler_rounds;
              }
              return a.busy_ns > b.busy_ns;
            });
  if (top_k > static_cast<long long>(ranked.size())) {
    top_k = static_cast<long long>(ranked.size());
  }
  std::printf("top %lld straggler shards:\n", top_k);
  std::printf("  %-6s %10s %12s %12s %12s\n", "shard", "straggle", "busy",
              "nodes", "messages");
  for (long long i = 0; i < top_k; ++i) {
    const PerfShardRow& r = ranked[static_cast<std::size_t>(i)];
    std::printf("  %-6lld %10lld %12s %12lld %12lld\n", r.shard,
                r.straggler_rounds,
                fmt_ns(static_cast<double>(r.busy_ns)).c_str(), r.nodes,
                r.messages);
  }

  // Heatmap: rows = shards, columns = round buckets (≤ 60), intensity =
  // mean shard busy time in the bucket, normalized by the global maximum.
  if (pf.rounds.empty() || pf.shards <= 0) return 0;
  const std::size_t n_shards = static_cast<std::size_t>(pf.shards);
  const std::size_t cols = std::min<std::size_t>(60, pf.rounds.size());
  const std::size_t per_col = (pf.rounds.size() + cols - 1) / cols;
  std::vector<std::vector<double>> cell(n_shards,
                                        std::vector<double>(cols, 0.0));
  double cell_max = 0.0;
  for (std::size_t c = 0; c < cols; ++c) {
    const std::size_t begin = c * per_col;
    const std::size_t end = std::min(begin + per_col, pf.rounds.size());
    if (begin >= end) continue;
    for (std::size_t r = begin; r < end; ++r) {
      const PerfRound& round = pf.rounds[r];
      for (std::size_t s = 0; s < round.shards.size() && s < n_shards; ++s) {
        cell[s][c] += static_cast<double>(round.shards[s].busy_ns);
      }
    }
    for (std::size_t s = 0; s < n_shards; ++s) {
      cell[s][c] /= static_cast<double>(end - begin);
      cell_max = std::max(cell_max, cell[s][c]);
    }
  }
  static const char kRamp[] = " .:-=+*#%@";
  constexpr int kLevels = 9;  // indices 0..9 into kRamp
  std::printf("shard busy heatmap (rounds %lld..%lld, %zu rounds/col):\n",
              pf.rounds.front().round, pf.rounds.back().round, per_col);
  const std::size_t max_rows = 32;
  for (std::size_t s = 0; s < std::min(n_shards, max_rows); ++s) {
    std::printf("  s%-4zu |", s);
    for (std::size_t c = 0; c < cols; ++c) {
      const int level =
          cell_max > 0.0
              ? static_cast<int>(std::lround(cell[s][c] / cell_max * kLevels))
              : 0;
      std::putchar(kRamp[std::clamp(level, 0, kLevels)]);
    }
    std::printf("|\n");
  }
  if (n_shards > max_rows) {
    std::printf("  (… %zu more shards)\n", n_shards - max_rows);
  }
  std::printf("  scale: ' '=idle … '@'=%s mean busy/round\n",
              fmt_ns(cell_max).c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// `report` — self-contained HTML (phase stacks + imbalance timeline).

const char* phase_color(const std::string& name) {
  // Fixed palette keyed by phase name; unknown names get gray.
  static const std::pair<const char*, const char*> kColors[] = {
      {"fault_apply", "#e6794a"},    {"compute", "#4a90d9"},
      {"stats_merge", "#9b6dc6"},    {"obs_merge", "#c44f8e"},
      {"deliver_count", "#3aa56f"},  {"deliver_prefix", "#7fbf4d"},
      {"deliver_place", "#2a7f62"},  {"finalize", "#b8a02e"},
      {"channel_decide", "#d9c34a"}, {"barrier_wait", "#8a8a8a"},
      {"claim_stall", "#b0b0b0"},    {"lp_x_update", "#4a90d9"},
      {"lp_dual_color", "#9b6dc6"},  {"lp_degree", "#3aa56f"},
      {"lp_z_pass", "#b8a02e"},
  };
  for (const auto& [key, color] : kColors) {
    if (name == key) return color;
  }
  return "#cccccc";
}

int run_report(const std::string& path, const std::string& out_path) {
  PerfFile pf;
  if (!load_perf(path, pf)) return 1;

  // For the stacked chart, rebuild per-bucket phase sums from the per-round
  // shard rows (the parallel phases) plus total-minus-parallel for the
  // sequential remainder.
  const std::size_t buckets = std::min<std::size_t>(480, pf.rounds.size());
  struct Bucket {
    double compute = 0, count = 0, place = 0, other = 0, total = 0;
    double imbalance = 0;
    std::size_t n = 0;
  };
  std::vector<Bucket> bs(buckets);
  if (buckets > 0) {
    const std::size_t per = (pf.rounds.size() + buckets - 1) / buckets;
    for (std::size_t i = 0; i < pf.rounds.size(); ++i) {
      const PerfRound& r = pf.rounds[i];
      Bucket& b = bs[std::min(i / per, buckets - 1)];
      double compute = 0, count = 0, place = 0;
      for (const PerfShardRow& s : r.shards) {
        compute += static_cast<double>(s.compute_ns);
        count += static_cast<double>(s.deliver_count_ns);
        place += static_cast<double>(s.deliver_place_ns);
      }
      b.compute += compute;
      b.count += count;
      b.place += place;
      b.other += std::max(
          0.0, static_cast<double>(r.total_ns) - compute - count - place);
      b.total += static_cast<double>(r.total_ns);
      b.imbalance += r.imbalance;
      ++b.n;
    }
    for (Bucket& b : bs) {
      if (b.n > 0) b.imbalance /= static_cast<double>(b.n);
    }
  }

  std::ostringstream html;
  html << "<!DOCTYPE html><html><head><meta charset=\"utf-8\">\n"
       << "<title>perf report: " << path << "</title>\n"
       << "<style>\n"
       << "body{font-family:system-ui,sans-serif;margin:2em;max-width:64em}\n"
       << "table{border-collapse:collapse;margin:1em 0}\n"
       << "td,th{border:1px solid #ccc;padding:0.3em 0.7em;"
          "text-align:right}\n"
       << "th{background:#f2f2f2}\n"
       << ".bar{display:inline-block;height:0.9em;background:#4a90d9;"
          "vertical-align:middle}\n"
       << ".legend{display:inline-block;width:0.9em;height:0.9em;"
          "margin-right:0.3em;vertical-align:middle}\n"
       << "svg{border:1px solid #ddd;background:#fafafa}\n"
       << "</style></head><body>\n"
       << "<h1>perf report</h1>\n"
       << "<p><code>" << path << "</code></p>\n";

  html << "<h2>Summary</h2><table>\n"
       << "<tr><th>rounds</th><th>retained</th><th>shards</th>"
       << "<th>wall</th><th>coverage</th><th>imbalance mean</th>"
       << "<th>imbalance max</th></tr>\n"
       << "<tr><td>" << pf.total_rounds << "</td><td>" << pf.retained
       << "</td><td>" << pf.shards << "</td><td>"
       << fmt_ns(static_cast<double>(pf.total_ns)) << "</td><td>"
       << static_cast<double>(static_cast<long long>(pf.coverage * 1000.0)) /
              10.0
       << "%</td><td>" << pf.imb_mean << "</td><td>" << pf.imb_max
       << "</td></tr></table>\n";

  // Run-wide phase totals as horizontal bars.
  long long phase_max = 1;
  for (const auto& [name, ns] : pf.phases) phase_max = std::max(phase_max, ns);
  std::vector<std::pair<std::string, long long>> sorted = pf.phases;
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  html << "<h2>Phase totals</h2><table>\n"
       << "<tr><th>phase</th><th>total</th><th>%wall</th><th></th></tr>\n";
  for (const auto& [name, ns] : sorted) {
    if (ns <= 0) continue;
    const double pct = pf.total_ns > 0 ? 100.0 * static_cast<double>(ns) /
                                            static_cast<double>(pf.total_ns)
                                      : 0.0;
    const int width = static_cast<int>(
        300.0 * static_cast<double>(ns) / static_cast<double>(phase_max));
    html << "<tr><td style=\"text-align:left\">" << name
         << (phase_is_top_level(name) ? "" : " <small>(nested)</small>")
         << "</td><td>" << fmt_ns(static_cast<double>(ns)) << "</td><td>"
         << static_cast<double>(static_cast<long long>(pct * 10.0)) / 10.0
         << "%</td><td style=\"text-align:left\"><span class=\"bar\" "
            "style=\"width:"
         << std::max(width, 1) << "px;background:" << phase_color(name)
         << "\"></span></td></tr>\n";
  }
  html << "</table>\n";

  // Stacked per-bucket phase chart.
  if (!bs.empty()) {
    const int W = 960, H = 240;
    const double bw = static_cast<double>(W) / static_cast<double>(bs.size());
    double bucket_max = 1.0;
    for (const Bucket& b : bs) bucket_max = std::max(bucket_max, b.total);
    html << "<h2>Round phase stacks</h2>\n"
         << "<p>Per-bucket round time (rounds " << pf.rounds.front().round
         << ".." << pf.rounds.back().round << ", " << bs.size()
         << " buckets): "
         << "<span class=\"legend\" style=\"background:"
         << phase_color("compute") << "\"></span>compute "
         << "<span class=\"legend\" style=\"background:"
         << phase_color("deliver_count") << "\"></span>deliver_count "
         << "<span class=\"legend\" style=\"background:"
         << phase_color("deliver_place") << "\"></span>deliver_place "
         << "<span class=\"legend\" style=\"background:#8a8a8a\"></span>"
         << "sequential/other</p>\n"
         << "<svg width=\"" << W << "\" height=\"" << H << "\">\n";
    for (std::size_t i = 0; i < bs.size(); ++i) {
      const Bucket& b = bs[i];
      if (b.total <= 0) continue;
      const double x = static_cast<double>(i) * bw;
      double y = H;
      auto stack = [&](double ns, const char* color) {
        const double h = ns / bucket_max * H;
        if (h <= 0) return;
        y -= h;
        html << "<rect x=\"" << x << "\" y=\"" << y << "\" width=\""
             << std::max(bw - 0.5, 0.5) << "\" height=\"" << h
             << "\" fill=\"" << color << "\"/>\n";
      };
      stack(b.compute, phase_color("compute"));
      stack(b.count, phase_color("deliver_count"));
      stack(b.place, phase_color("deliver_place"));
      stack(b.other, "#8a8a8a");
    }
    html << "</svg>\n";

    // Imbalance timeline.
    double imb_max = 1.0;
    for (const Bucket& b : bs) imb_max = std::max(imb_max, b.imbalance);
    html << "<h2>Imbalance timeline</h2>\n"
         << "<p>max/mean shard busy per bucket (1.0 = perfectly balanced, "
            "chart max "
         << imb_max << ")</p>\n"
         << "<svg width=\"" << W << "\" height=\"120\">\n<polyline fill=\""
         << "none\" stroke=\"#c44f8e\" stroke-width=\"1.5\" points=\"";
    for (std::size_t i = 0; i < bs.size(); ++i) {
      const double x = (static_cast<double>(i) + 0.5) * bw;
      const double y = 120.0 - bs[i].imbalance / imb_max * 110.0;
      html << x << "," << y << " ";
    }
    html << "\"/>\n</svg>\n";
  }

  // Shard totals.
  html << "<h2>Shard totals</h2><table>\n"
       << "<tr><th>shard</th><th>busy</th><th>compute</th><th>deliver "
          "count</th><th>deliver place</th><th>channel decide</th>"
       << "<th>nodes</th><th>messages</th><th>straggler rounds</th></tr>\n";
  for (const PerfShardRow& s : pf.shard_totals) {
    html << "<tr><td>" << s.shard << "</td><td>"
         << fmt_ns(static_cast<double>(s.busy_ns)) << "</td><td>"
         << fmt_ns(static_cast<double>(s.compute_ns)) << "</td><td>"
         << fmt_ns(static_cast<double>(s.deliver_count_ns)) << "</td><td>"
         << fmt_ns(static_cast<double>(s.deliver_place_ns)) << "</td><td>"
         << fmt_ns(static_cast<double>(s.channel_decide_ns)) << "</td><td>"
         << s.nodes << "</td><td>" << s.messages << "</td><td>"
         << s.straggler_rounds << "</td></tr>\n";
  }
  html << "</table>\n</body></html>\n";

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << html.str();
  std::printf("wrote %s (%lld rounds, %lld shards)\n", out_path.c_str(),
              pf.total_rounds, pf.shards);
  return 0;
}

// ---------------------------------------------------------------------------
// `summarize` — registry dump with histogram percentiles.

/// Percentile from bucket counts, linear interpolation within the bucket.
/// Bucket i covers [bounds[i-1], bounds[i]) with an implicit 0 lower edge
/// for the first bucket; the overflow bucket has no upper edge, so its
/// values are clamped to bounds.back().
double percentile(const std::vector<double>& bounds,
                  const std::vector<long long>& counts, double p) {
  long long total = 0;
  for (long long c : counts) total += c;
  if (total == 0 || bounds.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(total);
  long long cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    if (static_cast<double>(cum + counts[i]) >= rank) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double hi = i < bounds.size() ? bounds[i] : bounds.back();
      const double frac =
          (rank - static_cast<double>(cum)) / static_cast<double>(counts[i]);
      return lo + frac * (hi - lo);
    }
    cum += counts[i];
  }
  return bounds.back();
}

/// Parses the number array in `"<key>": [a, b, c]` (registry dump spacing).
template <typename T>
std::vector<T> parse_num_array(const std::string& s, const std::string& key) {
  std::vector<T> out;
  const std::string needle = "\"" + key + "\": [";
  const auto pos = s.find(needle);
  if (pos == std::string::npos) return out;
  const auto begin = pos + needle.size();
  const auto end = s.find(']', begin);
  if (end == std::string::npos) return out;
  std::istringstream is(s.substr(begin, end - begin));
  std::string tok;
  while (std::getline(is, tok, ',')) {
    try {
      if constexpr (std::is_integral_v<T>) {
        out.push_back(static_cast<T>(std::stoll(tok)));
      } else {
        out.push_back(static_cast<T>(std::stod(tok)));
      }
    } catch (const std::exception&) {
      out.clear();
      return out;
    }
  }
  return out;
}

int run_summarize(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  struct HistRow {
    std::string name;
    long long total = 0;
    double p50 = 0, p90 = 0, p99 = 0;
  };
  std::vector<HistRow> hists;
  std::vector<std::pair<std::string, long long>> scalars;
  std::string raw;
  while (std::getline(in, raw)) {
    // Registry::write_json emits one metric per line: `  "name": …`.
    const auto q0 = raw.find('"');
    if (q0 == std::string::npos) continue;
    const auto q1 = raw.find('"', q0 + 1);
    if (q1 == std::string::npos) continue;
    const std::string name = raw.substr(q0 + 1, q1 - q0 - 1);
    const auto colon = raw.find(':', q1);
    if (colon == std::string::npos) continue;
    const auto value_pos = raw.find_first_not_of(' ', colon + 1);
    if (value_pos == std::string::npos) continue;
    if (raw[value_pos] == '{') {
      HistRow h;
      h.name = name;
      const auto bounds = parse_num_array<double>(raw, "bounds");
      const auto counts = parse_num_array<long long>(raw, "counts");
      for (long long c : counts) h.total += c;
      if (h.total > 0) {
        h.p50 = percentile(bounds, counts, 50.0);
        h.p90 = percentile(bounds, counts, 90.0);
        h.p99 = percentile(bounds, counts, 99.0);
      }
      hists.push_back(std::move(h));
    } else {
      long long v = 0;
      try {
        v = std::stoll(raw.substr(value_pos));
      } catch (const std::exception&) {
        continue;
      }
      scalars.emplace_back(name, v);
    }
  }
  std::printf("%s: %zu metrics (%zu histograms, %zu scalars)\n", path.c_str(),
              hists.size() + scalars.size(), hists.size(), scalars.size());
  if (!hists.empty()) {
    std::printf(
        "histograms (percentiles interpolated linearly within buckets):\n");
    std::printf("  %-36s %10s %10s %10s %10s\n", "name", "count", "p50",
                "p90", "p99");
    for (const HistRow& h : hists) {
      if (h.total == 0) {
        std::printf("  %-36s %10lld %10s %10s %10s\n", h.name.c_str(),
                    h.total, "-", "-", "-");
      } else {
        std::printf("  %-36s %10lld %10.4g %10.4g %10.4g\n", h.name.c_str(),
                    h.total, h.p50, h.p90, h.p99);
      }
    }
  }
  if (!scalars.empty()) {
    std::printf("scalars:\n");
    for (const auto& [name, v] : scalars) {
      std::printf("  %-36s %10lld\n", name.c_str(), v);
    }
  }
  return 0;
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <mode> <file> [flags]\n"
      "  summary   <trace.jsonl>   event counts per name/category/severity\n"
      "  dump      <trace.jsonl>   re-print matching lines\n"
      "    [--cat=engine|message|fault|detector|repair|algo|user]\n"
      "    [--sev=debug|info|warn|error] [--node=N]\n"
      "    [--from=ROUND] [--to=ROUND] [--limit=N]\n"
      "  phases    <perf.jsonl>    per-phase attribution table (--perf)\n"
      "  imbalance <perf.jsonl>    shard heatmap + stragglers [--top=5]\n"
      "  report    <perf.jsonl>    self-contained HTML "
      "[--out=perf_report.html]\n"
      "  summarize <metrics.json>  histogram p50/p90/p99 + scalars\n",
      argv0);
  return 2;
}

}  // namespace

int run(const ftc::util::Args& args) {
  if (args.positional().size() < 2) return usage(args.program().c_str());
  const std::string mode = args.positional()[0];
  const std::string path = args.positional()[1];

  if (mode == "phases") return run_phases(path);
  if (mode == "imbalance") {
    return run_imbalance(path, args.get_int("top", 5, 1, INT32_MAX));
  }
  if (mode == "report") {
    return run_report(path, args.get_string("out", "perf_report.html"));
  }
  if (mode == "summarize") return run_summarize(path);
  if (mode != "summary" && mode != "dump") return usage(args.program().c_str());

  const std::string want_cat = args.get_string("cat", "");
  const std::string want_sev = args.get_string("sev", "");
  constexpr long long kMax = std::numeric_limits<long long>::max();
  const long long want_node = args.get_int("node", -2, -2, INT32_MAX);
  const long long from = args.get_int("from", 0, 0, kMax);
  const long long to = args.get_int("to", kMax, 0, kMax);
  const long long limit = args.get_int("limit", 0, 0, kMax);

  if (!want_cat.empty()) {
    obs::Category c;
    if (!obs::parse_category(want_cat, c)) {
      std::fprintf(stderr, "unknown category '%s'\n", want_cat.c_str());
      return 2;
    }
  }
  if (!want_sev.empty()) {
    obs::Severity s;
    if (!obs::parse_severity(want_sev, s)) {
      std::fprintf(stderr, "unknown severity '%s'\n", want_sev.c_str());
      return 2;
    }
  }

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }

  long long total = 0, matched = 0, malformed = 0, printed = 0;
  long long min_round = std::numeric_limits<long long>::max();
  long long max_round = std::numeric_limits<long long>::min();
  std::map<std::string, long long> by_name;      // "cat/name" -> count
  std::map<std::string, long long> by_severity;  // "sev" -> count
  std::string raw;
  while (std::getline(in, raw)) {
    if (raw.empty()) continue;
    ++total;
    Line line;
    if (!parse_line(raw, line)) {
      ++malformed;
      continue;
    }
    if (!want_cat.empty() && line.cat != want_cat) continue;
    if (!want_sev.empty() && line.sev != want_sev) continue;
    if (want_node != -2 && line.node != want_node) continue;
    if (line.round < from || line.round > to) continue;
    ++matched;
    min_round = std::min(min_round, line.round);
    max_round = std::max(max_round, line.round);
    if (mode == "dump") {
      if (limit > 0 && printed >= limit) break;
      std::printf("%s\n", raw.c_str());
      ++printed;
      continue;
    }
    by_name[line.cat + "/" + line.name] += 1;
    by_severity[line.sev] += 1;
  }

  if (mode == "summary") {
    std::printf("%s: %lld events (%lld matched filters", path.c_str(), total,
                matched);
    if (malformed > 0) std::printf(", %lld malformed", malformed);
    std::printf(")\n");
    if (matched > 0) {
      std::printf("rounds %lld..%lld\n", min_round, max_round);
      std::printf("by severity:\n");
      for (const auto& [sev, count] : by_severity) {
        std::printf("  %-8s %10lld\n", sev.c_str(), count);
      }
      // Names sorted by count, descending, for a "what dominated" view.
      std::vector<std::pair<std::string, long long>> names(by_name.begin(),
                                                           by_name.end());
      std::sort(names.begin(), names.end(), [](const auto& a, const auto& b) {
        if (a.second != b.second) return a.second > b.second;
        return a.first < b.first;
      });
      std::printf("by event (cat/name):\n");
      for (const auto& [name, count] : names) {
        std::printf("  %-28s %10lld\n", name.c_str(), count);
      }
    }
  }
  return malformed == 0 ? 0 : 1;
}

int main(int argc, char** argv) {
  return ftc::util::run_cli(argc, argv, run);
}
