// Optimized centralized mirror of Algorithm 1 (see lp_kmds.h).
//
// This is the kernelized rewrite of the reference solver
// (lp_kmds_reference.cpp); it must produce a bitwise-identical LpResult —
// the property tests and the kernel.lp_reference_equiv fuzz invariant
// enforce exactly that. The reference quantizes with libm's std::llround
// and this file with the inline sim::encode_fixed, so the same checks also
// pin the codec. Four structural changes carry the speedup:
//
//   * Power tables. The reference calls std::pow(d1v[i], e/t) three times
//     per node per (p, q) phase. All exponents come from the finite set
//     {-(t-1)/t .. t/t}, so the full pow family is precomputed once into
//     flat tables (one shared row under global-Δ knowledge, where every
//     node has the same base; one row per node under kTwoHop). Hoisting a
//     pure call is exact: the tables hold the very doubles the reference
//     computes inline. neg_wire holds the same table as receivers see it,
//     so an x⁺ that 1 − x does not clip is never re-quantized.
//   * One flat α/β arena, kept at the sender. The per-node
//     vector<vector<double>> alpha/beta tables (2n allocations,
//     pointer-chasing per access) become one flat arena of n + 2m {α, β}
//     pairs indexed by closed-neighborhood slot: arena[base[j]] is node j's
//     self slot, arena[base[j] + 1 + s] the slot of its s-th sorted
//     neighbor i, holding α_{j,i} and β_{j,i} — the shares of x⁺_j that i
//     charged, which j sends to i in line 27. The reference keeps that slot
//     in the receiver i's row; keeping it at the sender lets each raiser
//     j push λ_i·x⁺_j into its own row (one stream per raiser, only over
//     raiser arcs), and lets the z-pass stream i's own row and gather only
//     y_j, with no reverse-slot lookup.
//   * Pool-parallel phases. Each per-phase node loop (and the z-pass) is
//     embarrassingly parallel: every node writes only its own slots and
//     reads only values fixed before the loop started. The loops run over
//     fixed node blocks on a util::ThreadPool; the one reduction (Lemma
//     4.1's max ratio) is collected per block and merged in block order
//     after the barrier. Blocks are carved independently of the thread
//     count and max is order-insensitive over a fixed set, so the output
//     is bitwise identical at ANY width — the same determinism contract
//     the simulator's round engine ships (DESIGN.md §11).
//   * White frontier and raiser push. Only white nodes take part in the
//     coloring pass, and each turns gray once. Every block keeps its white
//     nodes in ascending order in its own segment of one flat list and
//     compacts it as it goes, so gray nodes cost nothing after they turn.
//     The pass sums c⁺, stores λ_i (+0 when c⁺ is +0.0: every summand is
//     ≥ +0.0, so no neighbor raised anything i could charge), updates the
//     self slot and runs the gray test, which grays zero-demand nodes in
//     the first iteration. The x-update lists each block's raisers
//     (x⁺ > 0) the same way, and after the coloring barrier each raiser
//     adds λ_i·x⁺_j to its own slots: a gray neighbor holds λ = +0 (reset
//     after the push of the iteration it turned gray in), and adding +0 to
//     a slot ≥ +0 changes nothing, so every slot gets the reference's
//     nonzero addends in the reference's order. In an iteration with no
//     raiser every c⁺ is +0, so no c, λ, α or β changes and no node turns
//     gray: it skips the coloring pass, the push and the decrements. δ̃ is no longer
//     recounted: after the push's barrier the owner thread walks the nodes
//     each block turned gray, in block order, and decrements δ̃ over their
//     closed neighborhoods. Integer decrements are exact and order-free,
//     and they cost n + 2m over the whole solve instead of n + 2m per
//     iteration.
#include "algo/lp/lp_kmds.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>

#include "obs/perf.h"
#include "sim/message.h"
#include "util/thread_pool.h"

namespace ftc::algo {

using domination::Demands;
using domination::DualSolution;
using graph::NodeId;

DualSolution LpResult::scaled_dual() const {
  DualSolution scaled = dual;
  for (double& v : scaled.y) v /= kappa;
  for (double& v : scaled.z) v /= kappa;
  return scaled;
}

double LpResult::dual_bound(const Demands& demands) const {
  return std::max(0.0, scaled_dual().objective(demands));
}

double theorem45_bound(int t, NodeId max_degree) {
  assert(t >= 1);
  const double d1 = static_cast<double>(max_degree) + 1.0;
  const double td = static_cast<double>(t);
  return td * (std::pow(d1, 2.0 / td) + std::pow(d1, 1.0 / td));
}

std::int64_t lp_round_count(int t) {
  return 2 * static_cast<std::int64_t>(t) * static_cast<std::int64_t>(t) + 2;
}

namespace {

/// Applies the message quantization the distributed processes incur, or the
/// identity when modeling exact real-valued messages.
double transmit(double value, bool quantize) {
  return quantize ? sim::decode_fixed(sim::encode_fixed(value)) : value;
}

/// Fixed-block parallel-for over [0, n). The block decomposition depends
/// only on (n, block) — never on the thread count — so any reduction merged
/// in block order is width-independent by construction.
class BlockRunner {
 public:
  BlockRunner(std::size_t n, int threads, int block_nodes)
      : n_(n),
        block_(block_nodes > 0 ? static_cast<std::size_t>(block_nodes)
                               : kDefaultBlockNodes),
        blocks_(n == 0 ? 0 : (n + block_ - 1) / block_) {
    if (threads > 1 && blocks_ > 1) {
      pool_ = std::make_unique<util::ThreadPool>(threads);
    }
  }

  [[nodiscard]] std::size_t blocks() const noexcept { return blocks_; }
  /// First node of block b.
  [[nodiscard]] std::size_t first(std::size_t b) const noexcept {
    return b * block_;
  }
  [[nodiscard]] util::ThreadPool* pool() const noexcept { return pool_.get(); }

  /// Runs fn(first, last, block_index) over every block; strict barrier.
  template <typename Fn>
  void run(const Fn& fn) const {
    if (pool_ != nullptr) {
      pool_->run(static_cast<int>(blocks_), [&](int b) {
        const auto ub = static_cast<std::size_t>(b);
        fn(ub * block_, std::min(n_, (ub + 1) * block_), ub);
      });
    } else {
      for (std::size_t b = 0; b < blocks_; ++b) {
        fn(b * block_, std::min(n_, (b + 1) * block_), b);
      }
    }
  }

 private:
  static constexpr std::size_t kDefaultBlockNodes = 8192;

  std::size_t n_;
  std::size_t block_;
  std::size_t blocks_;
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace

double lp_power(double d1, int t, int e) {
  assert(t >= 1 && e > -t && e <= t);
  constexpr int kMemoMaxT = 32;  // 2t entries, one bit each in `filled`
  if (t > kMemoMaxT) return std::pow(d1, static_cast<double>(e) / t);
  struct Memo {
    double d1 = 0.0;  // Δ+1 ≥ 1, and t ≥ 1: a fresh memo never hits
    int t = 0;
    std::uint64_t filled = 0;  // bit e + t − 1: power[e + t − 1] holds e
    double power[2 * kMemoMaxT] = {};
  };
  thread_local Memo memo;
  if (memo.d1 != d1 || memo.t != t) {
    memo.d1 = d1;
    memo.t = t;
    memo.filled = 0;
  }
  const auto slot = static_cast<unsigned>(e + t - 1);
  const std::uint64_t bit = std::uint64_t{1} << slot;
  if ((memo.filled & bit) == 0) {
    memo.power[slot] = std::pow(d1, static_cast<double>(e) / t);
    memo.filled |= bit;
  }
  return memo.power[slot];
}

std::vector<double> two_hop_d1(const graph::Graph& g) {
  const auto n = static_cast<std::size_t>(g.n());
  std::vector<double> hop1(n, 0.0);
  for (NodeId v = 0; v < g.n(); ++v) {
    double m = static_cast<double>(g.degree(v));
    for (NodeId w : g.neighbors(v)) {
      m = std::max(m, static_cast<double>(g.degree(w)));
    }
    hop1[static_cast<std::size_t>(v)] = m;
  }
  std::vector<double> d1(n, 1.0);
  for (NodeId v = 0; v < g.n(); ++v) {
    double m = hop1[static_cast<std::size_t>(v)];
    for (NodeId w : g.neighbors(v)) {
      m = std::max(m, hop1[static_cast<std::size_t>(w)]);
    }
    d1[static_cast<std::size_t>(v)] = m + 1.0;
  }
  return d1;
}

LpResult solve_fractional_kmds(const graph::Graph& g, const Demands& demands,
                               const LpOptions& options) {
  assert(static_cast<NodeId>(demands.size()) == g.n());
  assert(options.t >= 1);
  const auto n = static_cast<std::size_t>(g.n());
  const int t = options.t;
  const auto ts = static_cast<std::size_t>(t);
  const bool quantize = options.quantize_messages;
  const bool two_hop = options.degree_knowledge == DegreeKnowledge::kTwoHop;

  // Per-node base Δ_v + 1 (two_hop) or the single global base (kGlobal).
  std::vector<double> d1v;
  if (two_hop) d1v = two_hop_d1(g);
  const double d1 = static_cast<double>(g.max_degree()) + 1.0;

  LpResult result;
  result.kappa = static_cast<double>(t) * std::pow(d1, 1.0 / t);
  result.rounds = lp_round_count(t);
  result.primal.x.assign(n, 0.0);
  result.dual.y.assign(n, 0.0);
  result.dual.z.assign(n, 0.0);
  if (n == 0) return result;

  // Power tables: pos_pow[row·(t+1) + e] = base^{e/t} for e ∈ [0, t],
  // neg_pow[row·t + q] = base^{-q/t} for q ∈ [0, t). Under global Δ every
  // node shares one row (stride 0); under kTwoHop each node has its own.
  // Entries come from lp_power, the process's own source, which is bitwise
  // the std::pow expression the reference solver evaluates inline.
  const std::size_t rows = two_hop ? n : 1;
  const std::size_t row_stride_pos = two_hop ? ts + 1 : 0;
  const std::size_t row_stride_neg = two_hop ? ts : 0;
  std::vector<double> pos_pow(rows * (ts + 1));
  std::vector<double> neg_pow(rows * ts);
  std::vector<double> neg_wire(rows * ts);  // neg_pow as seen by receivers
  for (std::size_t r = 0; r < rows; ++r) {
    const double base = two_hop ? d1v[r] : d1;
    for (int e = 0; e <= t; ++e) {
      pos_pow[r * (ts + 1) + static_cast<std::size_t>(e)] =
          lp_power(base, t, e);
    }
    for (int q = 0; q < t; ++q) {
      const std::size_t at = r * ts + static_cast<std::size_t>(q);
      neg_pow[at] = lp_power(base, t, -q);
      neg_wire[at] = transmit(neg_pow[at], quantize);
    }
  }

  std::vector<double>& x = result.primal.x;
  std::vector<double> x_plus(n, 0.0);
  std::vector<double> x_plus_wire(n, 0.0);  // as seen by receivers
  std::vector<double> c(n, 0.0);
  std::vector<std::int32_t> dyn_deg(n, 0);
  for (NodeId v = 0; v < g.n(); ++v) {
    dyn_deg[static_cast<std::size_t>(v)] = g.degree(v) + 1;
  }

  // Flat α/β arena in closed-neighborhood slot order, kept at the sender:
  // node j owns [base[j], base[j] + deg(j)]. Slot 0 holds α_{j,j} and
  // β_{j,j}; slot 1+s holds α_{j,i} and β_{j,i} for j's s-th sorted
  // neighbor i — the part of x⁺_j that i's λ_i charged, which j sends to i
  // in line 27. base[j] = j + (sum of degrees of nodes < j).
  std::vector<std::size_t> adj_prefix(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    adj_prefix[i + 1] =
        adj_prefix[i] + static_cast<std::size_t>(g.degree(static_cast<NodeId>(i)));
  }
  const auto base = [&adj_prefix](std::size_t i) {
    return i + adj_prefix[i];
  };
  std::vector<AlphaBeta> ab(n + adj_prefix[n]);
  // λ_i of the current iteration: set by the coloring pass, read by the
  // raiser push, and +0 at every node that is gray or saw c⁺ = +0.
  std::vector<double> lambda(n, 0.0);

  const BlockRunner runner(n, options.threads, options.parallel_block);
  std::vector<double> block_ratio(runner.blocks(), 0.0);

  // Per-block node lists, each block's ascending run at list[first(b) ..
  // first(b) + count[b]): its still-white nodes (compacted by the coloring
  // pass), the nodes it turned gray in this iteration, and the nodes that
  // raised x in this iteration. All three are sized once here.
  std::vector<NodeId> white_list(n);
  std::vector<NodeId> gray_list(n);
  std::vector<NodeId> raiser_list(n);
  std::vector<std::size_t> white_count(runner.blocks(), 0);
  std::vector<std::size_t> gray_count(runner.blocks(), 0);
  std::vector<std::size_t> raiser_count(runner.blocks(), 0);
  runner.run([&](std::size_t first, std::size_t last, std::size_t b) {
    for (std::size_t i = first; i < last; ++i) {
      white_list[i] = static_cast<NodeId>(i);
    }
    white_count[b] = last - first;
  });

  // Optional perf attribution: each (p, q) iteration is one perf "round"
  // (kLpXUpdate / kLpDualColor / kLpDegree laps), the z-pass one more. The
  // sink only receives wall times — it cannot touch the solution state.
  obs::PerfPlane* const pf = options.perf;
  if (pf != nullptr && runner.pool() != nullptr) {
    runner.pool()->set_perf_enabled(true);
  }
  std::int64_t t_mark = pf != nullptr ? obs::PerfPlane::now_ns() : 0;
  auto lap = [&](obs::PerfPhase phase) {
    if (pf == nullptr) return;
    const std::int64_t now = obs::PerfPlane::now_ns();
    pf->add(phase, now - t_mark);
    t_mark = now;
  };
  std::int64_t perf_iter = 0;
  auto perf_end_iter = [&](std::int64_t iter_t0) {
    if (pf == nullptr) return;
    if (runner.pool() != nullptr) {
      const util::ThreadPool::PerfCounters pc = runner.pool()->drain_perf();
      pf->add(obs::PerfPhase::kBarrierWait, pc.barrier_wait_ns);
      pf->add(obs::PerfPhase::kClaimStall, pc.claim_stall_ns);
    }
    pf->end_round(perf_iter++, t_mark - iter_t0, {});
  };

  for (int p = t - 1; p >= 0; --p) {
    for (int q = t - 1; q >= 0; --q) {
      const std::int64_t iter_t0 = t_mark;
      const auto pe = static_cast<std::size_t>(p);
      const auto qe = static_cast<std::size_t>(q);
      // Lines 5-8: x-update (plus Lemma 4.1 audit), all nodes in lockstep.
      // Each node touches only its own x/x_plus/wire slots, and block b
      // lists its raisers in its own segment of raiser_list; the Lemma 4.1
      // ratio reduces into the task's block slot and is merged below. An
      // unclipped x⁺ is a table entry, so its wire value is read from
      // neg_wire; only a clipped 1 − x is quantized here. Under global Δ
      // every node divides by the same bound, and correctly rounded
      // division by a positive constant is monotone, so the block's max
      // δ̃ over that bound is the max of the per-node ratios.
      runner.run([&](std::size_t first, std::size_t last, std::size_t b) {
        NodeId* const raisers = raiser_list.data() + first;
        std::size_t raised = 0;
        double ratio = 0.0;
        std::int32_t max_deg = 0;
        for (std::size_t i = first; i < last; ++i) {
          const std::size_t row_pos = row_stride_pos * i;
          const std::size_t row_neg = row_stride_neg * i;
          const double threshold = pos_pow[row_pos + pe];
          x_plus[i] = 0.0;
          x_plus_wire[i] = 0.0;
          if (x[i] < 1.0) {
            if (two_hop) {
              ratio = std::max(ratio, static_cast<double>(dyn_deg[i]) /
                                          pos_pow[row_pos + pe + 1]);
            } else {
              max_deg = std::max(max_deg, dyn_deg[i]);
            }
            if (static_cast<double>(dyn_deg[i]) >= threshold) {
              const double room = 1.0 - x[i];
              if (room < neg_pow[row_neg + qe]) {
                x_plus[i] = room;
                x_plus_wire[i] = transmit(room, quantize);
              } else {
                x_plus[i] = neg_pow[row_neg + qe];
                x_plus_wire[i] = neg_wire[row_neg + qe];
              }
              x[i] += x_plus[i];
              raisers[raised++] = static_cast<NodeId>(i);
            }
          }
        }
        block_ratio[b] =
            two_hop ? ratio : static_cast<double>(max_deg) / pos_pow[pe + 1];
        raiser_count[b] = raised;
      });
      std::size_t raised = 0;
      for (std::size_t b = 0; b < runner.blocks(); ++b) {
        result.max_lemma41_ratio =
            std::max(result.max_lemma41_ratio, block_ratio[b]);
        raised += raiser_count[b];
      }
      lap(obs::PerfPhase::kLpXUpdate);

      // With no raiser every c⁺ is +0, so no c, α, β or λ changes and no
      // node turns gray: the rest of the iteration is the identity. The
      // first iteration always has a raiser (a max-degree node has
      // δ̃ = Δ+1 ≥ its threshold), so zero-demand nodes still gray there.
      if (raised > 0) {
        // Lines 10-21: c⁺, λ, the self slot and the gray test at white
        // nodes. Block b walks its own white segment; node i writes only
        // the c/lambda/self-slot/y values it owns and reads only x_plus
        // values fixed by the previous loop's barrier.
        runner.run([&](std::size_t first, std::size_t, std::size_t b) {
          NodeId* const whites = white_list.data() + first;
          NodeId* const grayed = gray_list.data() + first;
          std::size_t kept = 0;
          std::size_t turned = 0;
          for (std::size_t s = 0; s < white_count[b]; ++s) {
            const NodeId v = whites[s];
            const auto i = static_cast<std::size_t>(v);
            const double inv_dp = neg_pow[row_stride_neg * i + pe];
            double c_plus = x_plus[i];  // own increase, known exactly
            for (NodeId w : g.neighbors(v)) {
              c_plus += x_plus_wire[static_cast<std::size_t>(w)];
            }
            const double k_i = static_cast<double>(demands[i]);
            if (c_plus > 0.0) {
              const double lam = std::min(1.0, (k_i - c[i]) / c_plus);
              lambda[i] = lam;
              c[i] += c_plus;
              AlphaBeta& own = ab[base(i)];
              own.alpha += lam * x_plus[i];
              own.beta += lam * x_plus[i] * inv_dp;
            } else {
              lambda[i] = 0.0;
            }
            if (c[i] + kCoverageEps >= k_i) {
              grayed[turned++] = v;
              result.dual.y[i] = inv_dp;
            } else {
              whites[kept++] = v;
            }
          }
          white_count[b] = kept;
          gray_count[b] = turned;
        });

        // The α/β half of lines 10-21, kept at the sender: each raiser j
        // adds λ_i·x⁺_j and λ_i·x⁺_j·(Δ_i+1)^{-p/t} to the slot of every
        // neighbor i, in its own row. λ is frozen at the barrier above, and
        // a gray or c⁺ = +0 neighbor adds +0, which leaves a slot ≥ +0
        // unchanged — so each slot sees the reference's nonzero addends in
        // the reference's order.
        runner.run([&](std::size_t first, std::size_t, std::size_t b) {
          const NodeId* const raisers = raiser_list.data() + first;
          for (std::size_t s = 0; s < raiser_count[b]; ++s) {
            const NodeId v = raisers[s];
            const auto j = static_cast<std::size_t>(v);
            const double xj = x_plus_wire[j];
            AlphaBeta* slot = ab.data() + base(j);
            for (NodeId w : g.neighbors(v)) {
              const auto i = static_cast<std::size_t>(w);
              const double a = lambda[i] * xj;
              ++slot;
              slot->alpha += a;
              slot->beta += a * neg_pow[row_stride_neg * i + pe];
            }
          }
        });
        lap(obs::PerfPhase::kLpDualColor);

        // Lines 23-24: exchange colors. Each node that turned gray leaves
        // the white count of every node in its closed neighborhood and
        // stops charging raisers; the owner thread applies both after the
        // push's barrier, in block order.
        for (std::size_t b = 0; b < runner.blocks(); ++b) {
          const NodeId* const grayed = gray_list.data() + runner.first(b);
          for (std::size_t s = 0; s < gray_count[b]; ++s) {
            const NodeId j = grayed[s];
            lambda[static_cast<std::size_t>(j)] = 0.0;
            --dyn_deg[static_cast<std::size_t>(j)];
            for (NodeId w : g.neighbors(j)) {
              --dyn_deg[static_cast<std::size_t>(w)];
            }
          }
        }
      } else {
        lap(obs::PerfPhase::kLpDualColor);
      }
      lap(obs::PerfPhase::kLpDegree);
      perf_end_iter(iter_t0);
    }
  }
  const std::int64_t z_t0 = t_mark;

  // Line 27: z_i = Σ_{j∈N_i} (α_{i,j}·y_j − β_{i,j}). Node i's own row
  // holds α_{i,j} and β_{i,j} in slot 1+s for its s-th neighbor j, so the
  // pass streams that row and gathers only y_j. In the distributed version
  // i's neighbor j computes the share and sends it across the edge, so
  // neighbor shares are quantized like any other message.
  runner.run([&](std::size_t first, std::size_t last, std::size_t) {
    for (std::size_t i = first; i < last; ++i) {
      const NodeId v = static_cast<NodeId>(i);
      const AlphaBeta* slot = ab.data() + base(i);
      double z = slot->alpha * result.dual.y[i] - slot->beta;  // j = i
      for (NodeId w : g.neighbors(v)) {
        ++slot;
        const double share =
            slot->alpha * result.dual.y[static_cast<std::size_t>(w)] -
            slot->beta;
        z += transmit(share, quantize);
      }
      result.dual.z[i] = z;
    }
  });
  lap(obs::PerfPhase::kLpZPass);
  perf_end_iter(z_t0);

  return result;
}

}  // namespace ftc::algo
