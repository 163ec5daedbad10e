#include "testing/generators.h"

#include <algorithm>
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
  c.aux = static_cast<NodeId>(rng.uniform_i64(1, 6));
  c.avg_degree = rng.uniform(3.0, 11.0);
  c.graph_seed = rng();

  c.k = static_cast<std::int32_t>(rng.uniform_i64(1, kFuzzMaxK));
  c.uniform_demand = rng.bernoulli(0.6);

  c.t = static_cast<int>(rng.uniform_i64(1, kFuzzMaxT));
  c.algo_seed = rng();

  static constexpr int kWidths[] = {1, 2, 3, 4, 8};
  c.threads = kWidths[rng.index(std::size(kWidths))];
  c.min_delay = rng.uniform_i64(1, 3);
  c.max_delay = c.min_delay + rng.uniform_i64(0, 7);
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
  c.horizon = rng.uniform_i64(8, 24);

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
  c.run_transport = rng.bernoulli(0.35);
  if (config.force_lossy && c.loss == 0.0) {
    c.loss = rng.uniform(0.05, kFuzzMaxLoss);
  }

  // Dynamic churn. Appended after every pre-existing draw (same rule as the
  // channel block above) so old case seeds keep their exact cases.
  c.mutation_seed = rng();
  c.mutations =
      static_cast<std::int32_t>(rng.uniform_i64(1, kFuzzMaxMutations));
  c.mutation_batch = static_cast<std::int32_t>(rng.uniform_i64(1, 4));
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
     << " min_delay=" << c.min_delay
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
     << " run_transport=" << (c.run_transport ? 1 : 0)
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
  auto take = [&kv](const char* key) {
    auto it = kv.find(key);
    if (it == kv.end()) {
      throw std::invalid_argument(std::string("fuzz case: missing key '") +
                                  key + "'");
    }
    std::string value = it->second;
    kv.erase(it);
    return value;
  };
  auto to_i64 = [](const std::string& s) {
    std::size_t pos = 0;
    const long long v = std::stoll(s, &pos);
    if (pos != s.size()) throw std::invalid_argument("fuzz case: bad int " + s);
    return static_cast<std::int64_t>(v);
  };
  auto to_u64 = [](const std::string& s) {
    std::size_t pos = 0;
    const unsigned long long v = std::stoull(s, &pos);
    if (pos != s.size()) throw std::invalid_argument("fuzz case: bad u64 " + s);
    return static_cast<std::uint64_t>(v);
  };
  auto to_dbl = [](const std::string& s) {
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    if (pos != s.size()) throw std::invalid_argument("fuzz case: bad double " + s);
    return v;
  };

  FuzzCase c;
  c.case_seed = to_u64(take("case_seed"));
  const auto family = to_i64(take("family"));
  if (family < 0 || family >= kGraphFamilyCount) {
    throw std::invalid_argument("fuzz case: family out of range");
  }
  c.family = static_cast<GraphFamily>(family);
  c.n = static_cast<NodeId>(to_i64(take("n")));
  c.p = to_dbl(take("p"));
  c.aux = static_cast<NodeId>(to_i64(take("aux")));
  c.avg_degree = to_dbl(take("avg_degree"));
  c.graph_seed = to_u64(take("graph_seed"));
  c.k = static_cast<std::int32_t>(to_i64(take("k")));
  c.uniform_demand = to_i64(take("uniform_demand")) != 0;
  c.t = static_cast<int>(to_i64(take("t")));
  c.algo_seed = to_u64(take("algo_seed"));
  c.threads = static_cast<int>(to_i64(take("threads")));
  c.min_delay = to_i64(take("min_delay"));
  c.max_delay = to_i64(take("max_delay"));
  c.delay_seed = to_u64(take("delay_seed"));
  c.loss = to_dbl(take("loss"));
  const auto fault = to_i64(take("fault_kind"));
  if (fault < 0 || fault > static_cast<std::int64_t>(FaultKind::kRegion)) {
    throw std::invalid_argument("fuzz case: fault_kind out of range");
  }
  c.fault_kind = static_cast<FaultKind>(fault);
  c.fault_rate = to_dbl(take("fault_rate"));
  c.fault_count = static_cast<NodeId>(to_i64(take("fault_count")));
  c.fault_seed = to_u64(take("fault_seed"));
  c.horizon = to_i64(take("horizon"));
  c.run_differential = to_i64(take("run_differential")) != 0;
  c.run_async = to_i64(take("run_async")) != 0;
  c.run_small_oracles = to_i64(take("run_small_oracles")) != 0;
  c.run_obs = to_i64(take("run_obs")) != 0;
  c.dup = to_dbl(take("dup"));
  c.reorder = to_dbl(take("reorder"));
  c.reorder_delay = static_cast<int>(to_i64(take("reorder_delay")));
  c.burst = to_dbl(take("burst"));
  c.burst_in = to_dbl(take("burst_in"));
  c.burst_out = to_dbl(take("burst_out"));
  c.asym = to_dbl(take("asym"));
  c.run_transport = to_i64(take("run_transport")) != 0;
  // Dynamic-churn keys are optional (defaults = "off"): repro lines written
  // before the dimension existed must keep parsing.
  auto take_opt = [&kv](const char* key) -> std::string {
    auto it = kv.find(key);
    if (it == kv.end()) return {};
    std::string value = it->second;
    kv.erase(it);
    return value;
  };
  if (const std::string v = take_opt("run_dynamic"); !v.empty()) {
    c.run_dynamic = to_i64(v) != 0;
  }
  if (const std::string v = take_opt("mutations"); !v.empty()) {
    c.mutations = static_cast<std::int32_t>(to_i64(v));
  }
  if (const std::string v = take_opt("mutation_batch"); !v.empty()) {
    c.mutation_batch = static_cast<std::int32_t>(to_i64(v));
  }
  if (const std::string v = take_opt("mutation_seed"); !v.empty()) {
    c.mutation_seed = to_u64(v);
  }
  if (!kv.empty()) {
    throw std::invalid_argument("fuzz case: unknown key '" +
                                kv.begin()->first + "'");
  }
  if (c.n < 1 || c.t < 1 || c.k < 1 || c.threads < 1 ||
      c.min_delay < 1 || c.max_delay < c.min_delay || c.reorder_delay < 1 ||
      c.mutations < 0 || c.mutation_batch < 1) {
    throw std::invalid_argument("fuzz case: field out of range");
  }
  return c;
}

}  // namespace ftc::testing
