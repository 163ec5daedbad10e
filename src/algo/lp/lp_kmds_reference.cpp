// Unoptimized reference implementation of Algorithm 1's centralized mirror.
//
// This is the pre-kernel-layer solver kept verbatim: per-(p,q) std::pow
// calls, per-node vector<vector<double>> alpha/beta tables, binary-search
// slot lookups. It exists for two reasons:
//
//   * Correctness anchor: the optimized solve_fractional_kmds (lp_kmds.cpp
//     — power tables, flat CSR arenas, pool-parallel phases) must produce a
//     bitwise-identical LpResult at every thread width. The property tests
//     and the kernel.lp_reference_equiv fuzz invariant compare against this
//     function directly, without going through the simulator.
//   * Benchmark baseline: bench_algo_kernels prices the optimized solver
//     against this one, so BENCH_algo.json carries real before/after rows.
//
// Do not optimize this file; optimizations belong in lp_kmds.cpp.
#include <algorithm>
#include <cassert>
#include <cmath>

#include "algo/lp/lp_kmds.h"
#include "sim/message.h"

namespace ftc::algo {

using domination::Demands;
using graph::NodeId;

namespace {

/// Applies the message quantization the distributed processes incur, or the
/// identity when modeling exact real-valued messages. Spelled with libm's
/// std::llround rather than sim::encode_fixed, so that every comparison
/// against this solver also checks the inline codec against libm.
double transmit(double value, bool quantize) {
  return quantize ? static_cast<double>(std::llround(
                        value * sim::kFixedPointScale)) /
                        sim::kFixedPointScale
                  : value;
}

}  // namespace

LpResult solve_fractional_kmds_reference(const graph::Graph& g,
                                         const Demands& demands,
                                         const LpOptions& options) {
  assert(static_cast<NodeId>(demands.size()) == g.n());
  assert(options.t >= 1);
  const auto n = static_cast<std::size_t>(g.n());
  const int t = options.t;
  const bool quantize = options.quantize_messages;
  // Per-node base Δ_v + 1: the global maximum in the paper's baseline
  // model, the 2-hop local maximum in the Remark's Δ-free variant.
  std::vector<double> d1v;
  if (options.degree_knowledge == DegreeKnowledge::kTwoHop) {
    d1v = two_hop_d1(g);
  } else {
    d1v.assign(n, static_cast<double>(g.max_degree()) + 1.0);
  }
  const double d1 = static_cast<double>(g.max_degree()) + 1.0;

  LpResult result;
  result.kappa = static_cast<double>(t) * std::pow(d1, 1.0 / t);
  result.rounds = lp_round_count(t);
  result.primal.x.assign(n, 0.0);
  result.dual.y.assign(n, 0.0);
  result.dual.z.assign(n, 0.0);

  std::vector<double>& x = result.primal.x;
  std::vector<double> x_plus(n, 0.0);
  std::vector<double> x_plus_wire(n, 0.0);  // as seen by receivers
  std::vector<double> c(n, 0.0);
  std::vector<std::uint8_t> white(n, 1);
  std::vector<std::int32_t> dyn_deg(n, 0);
  for (NodeId v = 0; v < g.n(); ++v) {
    dyn_deg[static_cast<std::size_t>(v)] = g.degree(v) + 1;
  }

  // alpha[i]/beta[i] indexed by closed-neighborhood slot of node i:
  // slot 0 = i itself, slot 1+s = s-th sorted neighbor. alpha[i][slot of j]
  // holds the paper's α_{j,i} ("j's contribution accounted by i").
  std::vector<std::vector<double>> alpha(n), beta(n);
  for (NodeId v = 0; v < g.n(); ++v) {
    const auto idx = static_cast<std::size_t>(v);
    alpha[idx].assign(static_cast<std::size_t>(g.degree(v)) + 1, 0.0);
    beta[idx].assign(static_cast<std::size_t>(g.degree(v)) + 1, 0.0);
  }
  // Slot of neighbor j within node i's closed neighborhood (j != i).
  const auto slot_of = [&g](NodeId i, NodeId j) -> std::size_t {
    const auto nbrs = g.neighbors(i);
    const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), j);
    assert(it != nbrs.end() && *it == j);
    return 1 + static_cast<std::size_t>(it - nbrs.begin());
  };

  for (int p = t - 1; p >= 0; --p) {
    for (int q = t - 1; q >= 0; --q) {
      // Lines 5-8: x-update (plus Lemma 4.1 audit), all nodes in lockstep.
      for (std::size_t i = 0; i < n; ++i) {
        const double threshold = std::pow(d1v[i], static_cast<double>(p) / t);
        const double increment =
            std::pow(d1v[i], -static_cast<double>(q) / t);
        const double lemma41_bound =
            std::pow(d1v[i], static_cast<double>(p + 1) / t);
        x_plus[i] = 0.0;
        if (x[i] < 1.0) {
          result.max_lemma41_ratio =
              std::max(result.max_lemma41_ratio,
                       static_cast<double>(dyn_deg[i]) / lemma41_bound);
          if (static_cast<double>(dyn_deg[i]) >= threshold) {
            x_plus[i] = std::min(increment, 1.0 - x[i]);
            x[i] += x_plus[i];
          }
        }
        x_plus_wire[i] = transmit(x_plus[i], quantize);
      }

      // Lines 10-21: dual bookkeeping and coloring at white nodes.
      for (NodeId v = 0; v < g.n(); ++v) {
        const auto i = static_cast<std::size_t>(v);
        if (!white[i]) continue;
        const double inv_dp = std::pow(d1v[i], -static_cast<double>(p) / t);
        double c_plus = x_plus[i];  // own increase, known exactly
        for (NodeId w : g.neighbors(v)) {
          c_plus += x_plus_wire[static_cast<std::size_t>(w)];
        }
        const double k_i = static_cast<double>(demands[i]);
        const double lambda =
            c_plus > 0.0 ? std::min(1.0, (k_i - c[i]) / c_plus) : 1.0;
        c[i] += c_plus;
        alpha[i][0] += lambda * x_plus[i];
        beta[i][0] += lambda * x_plus[i] * inv_dp;
        std::size_t slot = 1;
        for (NodeId w : g.neighbors(v)) {
          const double xj = x_plus_wire[static_cast<std::size_t>(w)];
          alpha[i][slot] += lambda * xj;
          beta[i][slot] += lambda * xj * inv_dp;
          ++slot;
        }
        if (c[i] + kCoverageEps >= k_i) {
          white[i] = 0;
          result.dual.y[i] = inv_dp;
        }
      }

      // Lines 23-24: exchange colors, recompute dynamic degrees.
      for (NodeId v = 0; v < g.n(); ++v) {
        const auto i = static_cast<std::size_t>(v);
        std::int32_t deg = white[i] ? 1 : 0;
        for (NodeId w : g.neighbors(v)) {
          deg += white[static_cast<std::size_t>(w)] ? 1 : 0;
        }
        dyn_deg[i] = deg;
      }
    }
  }

  // Line 27: z_i = Σ_{j∈N_i} (α_{i,j}·y_j − β_{i,j}). α_{i,j} lives at node
  // j (in i's slot); in the distributed version j sends the share across the
  // edge, so neighbor shares are quantized like any other message.
  for (NodeId v = 0; v < g.n(); ++v) {
    const auto i = static_cast<std::size_t>(v);
    double z = alpha[i][0] * result.dual.y[i] - beta[i][0];  // j = i
    for (NodeId w : g.neighbors(v)) {
      const auto j = static_cast<std::size_t>(w);
      const std::size_t slot = slot_of(w, v);
      const double share = alpha[j][slot] * result.dual.y[j] - beta[j][slot];
      z += transmit(share, quantize);
    }
    result.dual.z[i] = z;
  }

  return result;
}

}  // namespace ftc::algo
