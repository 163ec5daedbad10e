#include "testing/generators.h"

#include <algorithm>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "graph/generators.h"
#include "util/rng.h"

namespace ftc::testing {

using graph::NodeId;

namespace {

NodeId clamp_node(NodeId v, NodeId lo, NodeId hi) {
  return std::max(lo, std::min(hi, v));
}

/// Biases sizes toward the small end (shrink-friendly, oracle-friendly)
/// while still reaching max_n regularly.
NodeId draw_n(util::Rng& rng, const FuzzConfig& config) {
  const double u = rng.uniform01();
  const double span = static_cast<double>(config.max_n - kFuzzMinN);
  return kFuzzMinN + static_cast<NodeId>(u * u * (span + 0.999));
}

}  // namespace

std::uint64_t case_seed_of(std::uint64_t root_seed, std::int64_t index) {
  // One splitmix64 step over (root, index); matches nothing else in the
  // library so campaign streams cannot collide with algorithm streams.
  std::uint64_t state =
      root_seed ^ (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(index + 1));
  return util::splitmix64(state);
}

FuzzCase generate_case(std::uint64_t case_seed, const FuzzConfig& config) {
  util::Rng rng(case_seed);
  FuzzCase c;
  c.case_seed = case_seed;

  c.family = static_cast<GraphFamily>(
      rng.uniform_i64(0, kGraphFamilyCount - 1));
  c.n = draw_n(rng, config);
  c.p = rng.uniform(0.03, 0.5);
  c.aux = static_cast<NodeId>(rng.uniform_i64(1, kFuzzMaxAux));
  c.avg_degree = rng.uniform(3.0, 11.0);
  c.graph_seed = rng();

  c.k = static_cast<std::int32_t>(rng.uniform_i64(1, kFuzzMaxK));
  c.uniform_demand = rng.bernoulli(0.6);

  c.t = static_cast<int>(rng.uniform_i64(1, kFuzzMaxT));
  c.algo_seed = rng();

  static constexpr int kWidths[] = {1, 2, 3, 4, 8};
  c.threads = kWidths[rng.index(std::size(kWidths))];
  // Two draws, so that a case seed keeps its max_delay and every later field.
  const std::int64_t delay_base = rng.uniform_i64(1, 3);
  c.max_delay = static_cast<int>(delay_base + rng.uniform_i64(0, 7));
  c.delay_seed = rng();
  c.loss = rng.bernoulli(0.4) ? rng.uniform(0.0, kFuzzMaxLoss) : 0.0;

  const bool is_udg = c.family == GraphFamily::kUdgUniform ||
                      c.family == GraphFamily::kUdgClustered;
  const double fault_draw = rng.uniform01();
  if (fault_draw < 0.45) {
    c.fault_kind = FaultKind::kNone;
  } else if (fault_draw < 0.65) {
    c.fault_kind = FaultKind::kIid;
  } else if (fault_draw < 0.8) {
    c.fault_kind = FaultKind::kTargeted;
  } else if (fault_draw < 0.9 || !is_udg) {
    c.fault_kind = FaultKind::kChurn;
  } else {
    c.fault_kind = FaultKind::kRegion;
  }
  c.fault_rate = rng.uniform(0.005, 0.05);
  c.fault_count = static_cast<NodeId>(rng.uniform_i64(1, 1 + c.n / 8));
  c.fault_seed = rng();
  c.horizon = rng.uniform_i64(kFuzzMinHorizon, kFuzzMaxHorizon);

  c.run_differential = rng.bernoulli(0.55);
  c.run_async = rng.bernoulli(0.4);
  c.run_small_oracles =
      c.n <= kFuzzExactOracleMaxN && rng.bernoulli(0.8);
  c.run_obs = rng.bernoulli(0.3);

  // Channel impairments. Appended after every pre-existing draw so a given
  // case_seed keeps generating the exact same topology/algorithm fields it
  // always did — old repro lines stay repro lines.
  c.dup = rng.bernoulli(0.25) ? rng.uniform(0.0, 0.3) : 0.0;
  c.reorder = rng.bernoulli(0.25) ? rng.uniform(0.0, 0.3) : 0.0;
  c.reorder_delay = static_cast<int>(rng.uniform_i64(1, 4));
  if (rng.bernoulli(0.15)) {
    c.burst = rng.uniform(0.3, 0.9);
    c.burst_in = rng.uniform(0.02, 0.2);
    c.burst_out = rng.uniform(0.2, 0.8);
  }
  c.asym = rng.bernoulli(0.2) ? rng.uniform(0.0, 1.0) : 0.0;
  c.run_lossy_sync = rng.bernoulli(0.35);
  if (config.force_lossy && c.loss == 0.0) {
    c.loss = rng.uniform(0.05, kFuzzMaxLoss);
  }

  // Dynamic churn. Appended after every pre-existing draw (same rule as the
  // channel block above) so old case seeds keep their exact cases.
  c.mutation_seed = rng();
  c.mutations =
      static_cast<std::int32_t>(rng.uniform_i64(1, kFuzzMaxMutations));
  c.mutation_batch =
      static_cast<std::int32_t>(rng.uniform_i64(1, kFuzzMaxMutationBatch));
  c.run_dynamic = rng.bernoulli(0.35);
  if (config.force_dynamic) c.run_dynamic = true;
  return c;
}

Instance materialize(const FuzzCase& c) {
  Instance inst;
  util::Rng rng(c.graph_seed);
  const NodeId n = std::max<NodeId>(3, c.n);

  switch (c.family) {
    case GraphFamily::kGnp:
      inst.g = graph::gnp(n, std::clamp(c.p, 0.0, 1.0), rng);
      break;
    case GraphFamily::kGnm: {
      const std::size_t max_m =
          static_cast<std::size_t>(n) * static_cast<std::size_t>(n - 1) / 2;
      const auto m = static_cast<std::size_t>(
          std::clamp(c.p, 0.0, 1.0) * static_cast<double>(max_m));
      inst.g = graph::gnm(n, std::min(m, max_m), rng);
      break;
    }
    case GraphFamily::kBarabasiAlbert:
      inst.g = graph::barabasi_albert(
          n, clamp_node(c.aux, 1, static_cast<NodeId>(n - 1)), rng);
      break;
    case GraphFamily::kTree:
      inst.g = graph::random_tree(n, rng);
      break;
    case GraphFamily::kGrid: {
      const NodeId rows = clamp_node(c.aux, 1, n);
      const NodeId cols = std::max<NodeId>(1, n / rows);
      inst.g = graph::grid(rows, cols);
      break;
    }
    case GraphFamily::kPath:
      inst.g = graph::path(n);
      break;
    case GraphFamily::kCycle:
      inst.g = graph::cycle(n);
      break;
    case GraphFamily::kStar:
      inst.g = graph::star(n);
      break;
    case GraphFamily::kComplete:
      // Dense: cap so closed neighborhoods stay small enough for oracles.
      inst.g = graph::complete(std::min<NodeId>(n, 24));
      break;
    case GraphFamily::kRegular: {
      NodeId d = clamp_node(c.aux, 1, static_cast<NodeId>(n - 1));
      if ((static_cast<std::int64_t>(n) * d) % 2 != 0) {
        d = d > 1 ? d - 1 : d + 1;  // n*d must be even
      }
      d = clamp_node(d, 1, static_cast<NodeId>(n - 1));
      inst.g = graph::random_regular(n, d, rng);
      break;
    }
    case GraphFamily::kCaveman: {
      const NodeId size = clamp_node(c.aux, 2, 7);
      const NodeId cliques = std::max<NodeId>(1, n / size);
      inst.g = graph::caveman(cliques, size);
      break;
    }
    case GraphFamily::kWattsStrogatz: {
      NodeId k_nearest = clamp_node(c.aux, 2, static_cast<NodeId>(n - 1));
      k_nearest -= k_nearest % 2;  // must be even and >= 2
      k_nearest = std::max<NodeId>(2, k_nearest);
      if (k_nearest >= n) {
        inst.g = graph::cycle(n);
      } else {
        inst.g =
            graph::watts_strogatz(n, k_nearest, std::clamp(c.p, 0.0, 1.0), rng);
      }
      break;
    }
    case GraphFamily::kUdgUniform:
      inst.udg = geom::uniform_udg_with_degree(
          n, std::clamp(c.avg_degree, 1.0, 16.0), rng);
      inst.has_udg = true;
      break;
    case GraphFamily::kUdgClustered: {
      const NodeId clusters = clamp_node(c.aux, 1, 5);
      const double side = std::sqrt(static_cast<double>(n));
      auto pts = geom::clustered_points(n, clusters, side, side / 6.0, rng);
      inst.udg = geom::build_udg(std::move(pts), 1.0);
      inst.has_udg = true;
      break;
    }
  }

  const NodeId gn = inst.graph().n();
  domination::Demands demands(static_cast<std::size_t>(gn), c.k);
  if (!c.uniform_demand) {
    // Per-node demands share the graph stream (already advanced past the
    // generator draws), keeping the whole instance a function of the case.
    for (auto& d : demands) {
      d = static_cast<std::int32_t>(rng.uniform_i64(1, std::max(1, c.k)));
    }
  }
  inst.demands = domination::clamp_demands(inst.graph(), demands);
  return inst;
}

sim::ChannelOptions channel_from_case(const FuzzCase& c) {
  sim::ChannelOptions o;
  o.loss = std::clamp(c.loss, 0.0, 0.999);
  o.asymmetry = std::clamp(c.asym, 0.0, 1.0);
  o.duplicate = std::clamp(c.dup, 0.0, 1.0);
  o.reorder = std::clamp(c.reorder, 0.0, 1.0);
  o.max_reorder_delay = std::max(1, c.reorder_delay);
  o.burst_loss = std::clamp(c.burst, 0.0, 0.999);
  o.p_enter_burst = std::clamp(c.burst_in, 0.0, 1.0);
  o.p_exit_burst = std::clamp(c.burst_out, 0.001, 1.0);
  o.seed = c.algo_seed ^ 0x10551055ULL;
  return o;
}

const char* family_name(GraphFamily family) {
  switch (family) {
    case GraphFamily::kGnp: return "gnp";
    case GraphFamily::kGnm: return "gnm";
    case GraphFamily::kBarabasiAlbert: return "barabasi_albert";
    case GraphFamily::kTree: return "tree";
    case GraphFamily::kGrid: return "grid";
    case GraphFamily::kPath: return "path";
    case GraphFamily::kCycle: return "cycle";
    case GraphFamily::kStar: return "star";
    case GraphFamily::kComplete: return "complete";
    case GraphFamily::kRegular: return "regular";
    case GraphFamily::kCaveman: return "caveman";
    case GraphFamily::kWattsStrogatz: return "watts_strogatz";
    case GraphFamily::kUdgUniform: return "udg_uniform";
    case GraphFamily::kUdgClustered: return "udg_clustered";
  }
  return "?";
}

namespace {

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Parses all of `s` as a T: a sign on an unsigned field, an overflow or a
/// trailing character throws instead of wrapping or being dropped.
template <typename T>
T parse_whole(const std::string& s) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || ptr != end) {
    throw std::invalid_argument("fuzz case: bad number '" + s + "'");
  }
  return v;
}

}  // namespace

std::string to_string(const FuzzCase& c) {
  std::ostringstream os;
  os << "case_seed=" << c.case_seed
     << " family=" << static_cast<std::int32_t>(c.family)
     << " n=" << c.n
     << " p=" << fmt_double(c.p)
     << " aux=" << c.aux
     << " avg_degree=" << fmt_double(c.avg_degree)
     << " graph_seed=" << c.graph_seed
     << " k=" << c.k
     << " uniform_demand=" << (c.uniform_demand ? 1 : 0)
     << " t=" << c.t
     << " algo_seed=" << c.algo_seed
     << " threads=" << c.threads
     << " max_delay=" << c.max_delay
     << " delay_seed=" << c.delay_seed
     << " loss=" << fmt_double(c.loss)
     << " fault_kind=" << static_cast<std::int32_t>(c.fault_kind)
     << " fault_rate=" << fmt_double(c.fault_rate)
     << " fault_count=" << c.fault_count
     << " fault_seed=" << c.fault_seed
     << " horizon=" << c.horizon
     << " run_differential=" << (c.run_differential ? 1 : 0)
     << " run_async=" << (c.run_async ? 1 : 0)
     << " run_small_oracles=" << (c.run_small_oracles ? 1 : 0)
     << " run_obs=" << (c.run_obs ? 1 : 0)
     << " dup=" << fmt_double(c.dup)
     << " reorder=" << fmt_double(c.reorder)
     << " reorder_delay=" << c.reorder_delay
     << " burst=" << fmt_double(c.burst)
     << " burst_in=" << fmt_double(c.burst_in)
     << " burst_out=" << fmt_double(c.burst_out)
     << " asym=" << fmt_double(c.asym)
     << " run_lossy_sync=" << (c.run_lossy_sync ? 1 : 0)
     << " run_dynamic=" << (c.run_dynamic ? 1 : 0)
     << " mutations=" << c.mutations
     << " mutation_batch=" << c.mutation_batch
     << " mutation_seed=" << c.mutation_seed;
  return os.str();
}

FuzzCase parse_fuzz_case(const std::string& line) {
  std::map<std::string, std::string> kv;
  std::istringstream is(line);
  std::string token;
  while (is >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("fuzz case: malformed token '" + token + "'");
    }
    kv[token.substr(0, eq)] = token.substr(eq + 1);
  }
  // A key without a `fallback` is required.
  auto value = [&kv](const char* key, const char* fallback = nullptr) {
    auto it = kv.find(key);
    if (it == kv.end()) {
      if (fallback != nullptr) return std::string(fallback);
      throw std::invalid_argument(std::string("fuzz case: missing key '") +
                                  key + "'");
    }
    std::string v = it->second;
    kv.erase(it);
    return v;
  };
  auto u64 = [&](const char* key, const char* fallback = nullptr) {
    return parse_whole<std::uint64_t>(value(key, fallback));
  };
  auto dbl = [&](const char* key) { return parse_whole<double>(value(key)); };
  // Integer fields are ranged before they are narrowed, so an out-of-domain
  // value throws instead of wrapping (k=4294967297 must not read as k=1).
  auto ranged = [&](const char* key, std::int64_t lo, std::int64_t hi,
                    const char* fallback = nullptr) {
    const std::string s = value(key, fallback);
    const auto v = parse_whole<std::int64_t>(s);
    if (v < lo || v > hi) {
      throw std::invalid_argument(
          std::string("fuzz case: ") + key + "=" + s + " is outside [" +
          std::to_string(lo) + ", " + std::to_string(hi) + "]");
    }
    return v;
  };
  auto flag = [&](const char* key, const char* fallback = nullptr) {
    return ranged(key, 0, 1, fallback) != 0;
  };

  FuzzCase c;
  c.case_seed = u64("case_seed");
  c.family =
      static_cast<GraphFamily>(ranged("family", 0, kGraphFamilyCount - 1));
  c.n = static_cast<NodeId>(ranged("n", 1, INT32_MAX));
  c.p = dbl("p");
  c.aux = static_cast<NodeId>(ranged("aux", 1, kFuzzMaxAux));
  c.avg_degree = dbl("avg_degree");
  c.graph_seed = u64("graph_seed");
  c.k = static_cast<std::int32_t>(ranged("k", 1, kFuzzMaxK));
  c.uniform_demand = flag("uniform_demand");
  c.t = static_cast<int>(ranged("t", 1, kFuzzMaxT));
  c.algo_seed = u64("algo_seed");
  c.threads = static_cast<int>(ranged("threads", 1, kFuzzMaxThreads));
  c.max_delay = static_cast<int>(ranged("max_delay", 1, INT_MAX));
  c.delay_seed = u64("delay_seed");
  c.loss = dbl("loss");
  c.fault_kind = static_cast<FaultKind>(ranged(
      "fault_kind", 0, static_cast<std::int64_t>(FaultKind::kRegion)));
  c.fault_rate = dbl("fault_rate");
  c.fault_count = static_cast<NodeId>(ranged("fault_count", 0, INT32_MAX));
  c.fault_seed = u64("fault_seed");
  c.horizon = ranged("horizon", kFuzzMinHorizon, kFuzzMaxHorizon);
  c.run_differential = flag("run_differential");
  c.run_async = flag("run_async");
  c.run_small_oracles = flag("run_small_oracles");
  c.run_obs = flag("run_obs");
  c.dup = dbl("dup");
  c.reorder = dbl("reorder");
  c.reorder_delay = static_cast<int>(ranged("reorder_delay", 1, INT_MAX));
  c.burst = dbl("burst");
  c.burst_in = dbl("burst_in");
  c.burst_out = dbl("burst_out");
  c.asym = dbl("asym");
  c.run_lossy_sync = flag("run_lossy_sync");
  // Dynamic-churn keys fall back to FuzzCase's defaults ("off"): repro
  // lines written before the dimension existed must keep parsing.
  c.run_dynamic = flag("run_dynamic", "0");
  c.mutations = static_cast<std::int32_t>(
      ranged("mutations", 0, kFuzzMaxMutations, "0"));
  c.mutation_batch = static_cast<std::int32_t>(
      ranged("mutation_batch", 1, kFuzzMaxMutationBatch, "1"));
  c.mutation_seed = u64("mutation_seed", "1");
  if (!kv.empty()) {
    throw std::invalid_argument("fuzz case: unknown key '" +
                                kv.begin()->first + "'");
  }
  return c;
}

}  // namespace ftc::testing
