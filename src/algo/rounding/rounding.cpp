#include "algo/rounding/rounding.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/rng.h"

namespace ftc::algo {

using domination::Demands;
using graph::NodeId;

double rounding_log_d1(NodeId max_degree) {
  struct Memo {
    NodeId max_degree = -1;  // Δ ≥ 0: a fresh memo never hits
    double ln_d1 = 0.0;
  };
  thread_local Memo memo;
  if (memo.max_degree != max_degree) {
    memo = {max_degree, std::log(static_cast<double>(max_degree) + 1.0)};
  }
  return memo.ln_d1;
}

void round_fractional(const graph::Graph& g,
                      const domination::FractionalSolution& x,
                      const Demands& demands, std::uint64_t seed,
                      RoundingScratch& scratch, RoundingResult& out,
                      std::span<const double> weights) {
  assert(static_cast<NodeId>(x.x.size()) == g.n());
  assert(static_cast<NodeId>(demands.size()) == g.n());
  assert(weights.empty() || static_cast<NodeId>(weights.size()) == g.n());
  const auto n = static_cast<std::size_t>(g.n());
  const double ln_d1 = rounding_log_d1(g.max_degree());

  out.set.clear();
  out.chosen_by_coin = 0;
  out.chosen_by_request = 0;
  out.rounds = 3;
  scratch.in_set.assign(n, 0);
  scratch.requested.assign(n, 0);
  std::vector<std::uint8_t>& in_set = scratch.in_set;
  std::vector<std::uint8_t>& requested = scratch.requested;
  std::vector<NodeId>& candidates = scratch.candidates;

  // Line 1-2: independent coins, one per node, from the node's own stream
  // (identical to what the simulator hands each process).
  const util::Rng root(seed);
  for (std::size_t i = 0; i < n; ++i) {
    util::Rng node_rng = root.split(i);
    const double p = std::min(1.0, x.x[i] * ln_d1);
    if (node_rng.bernoulli(p)) {
      in_set[i] = 1;
      ++out.chosen_by_coin;
    }
  }

  // Lines 4-6: every deficient node requests its shortfall, reading only the
  // coin-phase choices (the synchronous semantics: all requests are decided
  // against the same snapshot).
  for (NodeId v = 0; v < g.n(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    std::int32_t coverage = in_set[i];
    for (NodeId w : g.neighbors(v)) {
      coverage += in_set[static_cast<std::size_t>(w)];
    }
    const std::int32_t shortfall = demands[i] - coverage;
    if (shortfall <= 0) continue;
    // Deterministic request rule: self first, then neighbors ascending;
    // with weights, cheapest first and that order among equal weights.
    candidates.clear();
    if (!in_set[i]) candidates.push_back(v);
    for (NodeId w : g.neighbors(v)) {
      if (!in_set[static_cast<std::size_t>(w)]) candidates.push_back(w);
    }
    const auto take =
        std::min(candidates.size(), static_cast<std::size_t>(shortfall));
    if (!weights.empty()) {
      // The first `take` entries of a stable sort by weight, without the
      // sort's temporary buffer: rotate the first cheapest one forward.
      const auto by_weight = [&](NodeId a, NodeId b) {
        return weights[static_cast<std::size_t>(a)] <
               weights[static_cast<std::size_t>(b)];
      };
      for (std::size_t r = 0; r < take; ++r) {
        const auto first = candidates.begin() + static_cast<std::ptrdiff_t>(r);
        const auto cheapest =
            std::min_element(first, candidates.end(), by_weight);
        std::rotate(first, cheapest, cheapest + 1);
      }
    }
    // Requests to already-requested nodes are idempotent.
    for (std::size_t c = 0; c < take; ++c) {
      requested[static_cast<std::size_t>(candidates[c])] = 1;
    }
  }

  // Line 7: requested nodes join.
  for (std::size_t i = 0; i < n; ++i) {
    if (requested[i] && !in_set[i]) {
      in_set[i] = 1;
      ++out.chosen_by_request;
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (in_set[i]) out.set.push_back(static_cast<NodeId>(i));
  }
}

RoundingResult round_fractional(const graph::Graph& g,
                                const domination::FractionalSolution& x,
                                const Demands& demands, std::uint64_t seed,
                                std::span<const double> weights) {
  RoundingScratch scratch;
  RoundingResult result;
  round_fractional(g, x, demands, seed, scratch, result, weights);
  return result;
}

}  // namespace ftc::algo
