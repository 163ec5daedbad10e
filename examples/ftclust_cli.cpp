// ftclust_cli — command-line front end for the whole library.
//
// Reads a network (edge-list file or built-in generator), runs a chosen
// k-MDS algorithm, validates the result, and optionally writes the
// dominating set and a Graphviz rendering.
//
//   ftclust_cli --generate=udg --n=500 --degree=14 --algorithm=udg --k=3
//   ftclust_cli --graph=net.edges --algorithm=pipeline --k=2 --t=4
//               --connect --out=backbone.txt --dot=backbone.dot
//
// Options:
//   --graph=PATH          read an edge list ("n m" header, "u v" lines)
//   --udg=PATH            read a deployment saved by --save-udg (keeps
//                         coordinates, so --algorithm=udg and --svg work)
//   --save-udg=PATH       save the generated deployment for reuse
//   --generate=FAMILY     gnp | udg | ba | grid | ws      (default: udg)
//   --n, --degree, --seed generator parameters
//   --algorithm=NAME      pipeline | greedy | udg | lrg | mis | luby |
//                         exact | weighted-greedy          (default: greedy)
//   --k=K                 fold parameter (default 1)
//   --t=T                 Algorithm 1 trade-off parameter (default 3)
//   --weights=LO,HI       random node costs (weighted-greedy only)
//   --connect             post-process into a connected backbone
//   --out=PATH            write the set, one node id per line
//   --dot=PATH            write a Graphviz file with the set highlighted
//   --svg=PATH            render the deployment (UDG generator only)
//
// Malformed or out-of-range flag values (--n=0, --k=-3, --weights=4,1, ...)
// and unreadable input files are reported on stderr with exit status 2.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "algo/baseline/greedy.h"
#include "algo/baseline/lrg.h"
#include "algo/baseline/luby.h"
#include "algo/baseline/mis_clustering.h"
#include "algo/exact/exact.h"
#include "algo/extensions/cds.h"
#include "algo/pipeline.h"
#include "algo/udg/udg_kmds.h"
#include "algo/weighted/weighted.h"
#include "domination/bounds.h"
#include "domination/domination.h"
#include "geom/svg.h"
#include "geom/udg.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "util/cli.h"
#include "util/rng.h"

namespace {

using namespace ftc;

/// --weights=LO,HI: two finite numbers with 0 < LO <= HI, parsed whole.
/// Throws std::invalid_argument otherwise.
std::pair<double, double> weight_range(const util::Args& args) {
  const std::string raw = args.get_string("weights", "1,4");
  const auto reject = [&](const char* why) {
    return std::invalid_argument("--weights=" + raw + ": " + why);
  };
  const auto number = [&](const std::string& text) {
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || end != text.c_str() + text.size() ||
        !std::isfinite(value)) {
      throw reject("expected LO,HI as two finite numbers");
    }
    return value;
  };
  const auto comma = raw.find(',');
  if (comma == std::string::npos) {
    throw reject("expected LO,HI as two finite numbers");
  }
  const double lo = number(raw.substr(0, comma));
  const double hi = number(raw.substr(comma + 1));
  if (!(lo > 0.0 && lo <= hi)) throw reject("need 0 < LO <= HI");
  return {lo, hi};
}

struct Network {
  graph::Graph graph;
  geom::UnitDiskGraph udg;  // populated only for --generate=udg
  bool has_geometry = false;
};

Network load_network(const util::Args& args) {
  Network net;
  const std::string path = args.get_string("graph", "");
  if (!path.empty()) {
    net.graph = graph::load_edge_list(path);
    return net;
  }
  const std::string udg_path = args.get_string("udg", "");
  if (!udg_path.empty()) {
    net.udg = geom::load_udg(udg_path);
    net.graph = net.udg.graph;
    net.has_geometry = true;
    return net;
  }
  const std::string family = args.get_string("generate", "udg");
  const auto n = static_cast<graph::NodeId>(
      args.get_int("n", 500, 1, std::numeric_limits<graph::NodeId>::max()));
  const double degree = args.get_double("degree", 12.0);
  util::Rng rng(args.get_u64("seed", 1));
  if (family == "udg") {
    net.udg = geom::uniform_udg_with_degree(n, degree, rng);
    net.graph = net.udg.graph;
    net.has_geometry = true;
  } else if (family == "gnp") {
    net.graph = graph::gnp(n, degree / static_cast<double>(n - 1), rng);
  } else if (family == "ba") {
    net.graph = graph::barabasi_albert(
        n, std::max<graph::NodeId>(1, static_cast<graph::NodeId>(degree / 2)),
        rng);
  } else if (family == "grid") {
    const auto side = static_cast<graph::NodeId>(
        std::llround(std::sqrt(static_cast<double>(n))));
    net.graph = graph::grid(side, side);
  } else if (family == "ws") {
    auto k_nearest =
        std::max<graph::NodeId>(2, static_cast<graph::NodeId>(degree));
    if (k_nearest % 2 != 0) ++k_nearest;
    net.graph = graph::watts_strogatz(n, k_nearest, 0.1, rng);
  } else {
    std::fprintf(stderr, "unknown --generate=%s\n", family.c_str());
    std::exit(2);
  }
  return net;
}

int run(const util::Args& args) {
  const auto k = static_cast<std::int32_t>(
      args.get_int("k", 1, 1, std::numeric_limits<std::int32_t>::max()));
  const auto t = static_cast<int>(
      args.get_int("t", 3, 1, std::numeric_limits<int>::max()));
  const Network net = load_network(args);
  const std::string save_udg_path = args.get_string("save-udg", "");
  if (!save_udg_path.empty()) {
    if (!net.has_geometry) {
      std::fprintf(stderr, "--save-udg needs a geometric network\n");
      return 2;
    }
    geom::save_udg(save_udg_path, net.udg);
    std::printf("deployment saved to %s\n", save_udg_path.c_str());
  }
  const graph::Graph& g = net.graph;
  const std::uint64_t seed = args.get_u64("seed", 1);
  const auto demands =
      domination::clamp_demands(g, domination::uniform_demands(g.n(), k));

  std::printf("network: n=%d, m=%zu, Delta=%d\n", g.n(), g.m(),
              g.max_degree());

  const std::string algorithm = args.get_string("algorithm", "greedy");
  std::vector<graph::NodeId> set;
  auto mode = domination::Mode::kClosedNeighborhood;
  std::int64_t rounds = -1;  // -1: centralized/sequential

  if (algorithm == "pipeline") {
    algo::PipelineOptions opts;
    opts.t = t;
    opts.seed = seed;
    const auto result = algo::run_kmds_pipeline(g, demands, opts);
    set = result.set();
    rounds = result.total_rounds;
  } else if (algorithm == "greedy") {
    set = algo::greedy_kmds(g, demands).set;
  } else if (algorithm == "udg") {
    if (!net.has_geometry) {
      std::fprintf(stderr,
                   "--algorithm=udg needs --generate=udg (distance "
                   "sensing)\n");
      return 2;
    }
    algo::UdgOptions opts;
    opts.k = k;
    const auto result = algo::solve_udg_kmds(net.udg, opts, seed);
    set = result.leaders;
    mode = domination::Mode::kOpenForNonMembers;
    rounds = 2 * result.part1_rounds + 3 * (result.part2_iterations + 1);
  } else if (algorithm == "lrg") {
    const auto result = algo::lrg_kmds(g, demands, seed);
    set = result.set;
    rounds = result.rounds;
  } else if (algorithm == "mis") {
    set = algo::mis_kfold(g, k).set;
    mode = domination::Mode::kOpenForNonMembers;
  } else if (algorithm == "luby") {
    const auto result = algo::luby_mis_kfold(g, k, seed);
    set = result.set;
    mode = domination::Mode::kOpenForNonMembers;
    rounds = result.rounds;
  } else if (algorithm == "exact") {
    const auto result = algo::exact_kmds(g, demands);
    if (!result.feasible) {
      std::printf("instance infeasible (some k_i exceeds deg+1)\n");
      return 1;
    }
    if (!result.optimal) std::printf("warning: budget hit, not optimal\n");
    set = result.set;
  } else if (algorithm == "weighted-greedy") {
    const auto [lo, hi] = weight_range(args);
    util::Rng wrng(seed + 17);
    const auto weights = algo::random_weights(g.n(), lo, hi, wrng);
    set = algo::greedy_kmds(g, demands, weights).set;
    std::printf("weighted objective: %.2f (weights in [%.1f, %.1f])\n",
                algo::set_weight(set, weights), lo, hi);
  } else {
    std::fprintf(stderr, "unknown --algorithm=%s\n", algorithm.c_str());
    return 2;
  }

  if (args.get_bool("connect", false)) {
    const auto connected = algo::connect_dominating_set(g, set);
    std::printf("connect: +%lld connectors over %lld bridges\n",
                static_cast<long long>(connected.connectors_added),
                static_cast<long long>(connected.bridges_used));
    set = connected.set;
  }

  const bool valid = domination::is_k_dominating(g, set, demands, mode);
  const auto greedy_size = algo::greedy_kmds(g, demands).set.size();
  const double lb = domination::best_lower_bound(
      g, demands, static_cast<std::int64_t>(greedy_size));

  std::printf("algorithm: %s\n", algorithm.c_str());
  std::printf("set size: %zu (%.1f%% of nodes)\n", set.size(),
              100.0 * static_cast<double>(set.size()) /
                  static_cast<double>(std::max<graph::NodeId>(1, g.n())));
  if (rounds >= 0) {
    std::printf("synchronous rounds: %lld\n", static_cast<long long>(rounds));
  }
  std::printf("valid %d-fold dominating set: %s\n", k, valid ? "yes" : "NO");
  if (lb > 0) {
    std::printf("vs OPT lower bound %.1f: %.2fx\n", lb,
                static_cast<double>(set.size()) / lb);
  }

  const std::string out_path = args.get_string("out", "");
  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::trunc);
    for (graph::NodeId v : set) out << v << '\n';
    std::printf("set written to %s\n", out_path.c_str());
  }
  const std::string dot_path = args.get_string("dot", "");
  if (!dot_path.empty()) {
    std::ofstream out(dot_path, std::ios::trunc);
    graph::write_dot(out, g, set);
    std::printf("dot written to %s\n", dot_path.c_str());
  }
  const std::string svg_path = args.get_string("svg", "");
  if (!svg_path.empty()) {
    if (!net.has_geometry) {
      std::fprintf(stderr, "--svg needs --generate=udg (coordinates)\n");
      return 2;
    }
    geom::SvgLayer layer;
    layer.nodes = set;
    layer.color = "#d62728";
    layer.label = "k-fold dominating set (" + std::to_string(set.size()) +
                  " nodes)";
    const std::vector<geom::SvgLayer> layers{layer};
    geom::save_svg(svg_path, net.udg, layers);
    std::printf("svg written to %s\n", svg_path.c_str());
  }
  return valid ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  if (args.has("help")) {
    std::printf("see the header comment of examples/ftclust_cli.cpp\n");
    return 0;
  }
  try {
    return run(args);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "ftclust_cli: %s\n", e.what());
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "ftclust_cli: %s\n", e.what());
  }
  return 2;
}
