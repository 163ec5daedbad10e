#include "algo/baseline/luby.h"

#include <cassert>
#include <cmath>

#include "util/rng.h"

namespace ftc::algo {

using graph::NodeId;

std::int64_t luby_phase_rounds(NodeId n) {
  const double log2n = std::log2(static_cast<double>(n) + 2.0);
  return 8 * static_cast<std::int64_t>(std::ceil(log2n)) + 8;
}

LubyResult luby_mis_kfold(const graph::Graph& g, std::int32_t k,
                          std::uint64_t seed) {
  assert(k >= 1);
  const auto n = static_cast<std::size_t>(g.n());

  LubyResult result;
  // 2 network rounds per paper round, plus the final join-absorption round
  // the distributed schedule needs (see tests/support/luby_process.h).
  result.rounds =
      2 * static_cast<std::int64_t>(k) * luby_phase_rounds(g.n()) + 1;

  std::vector<util::Rng> rngs;
  rngs.reserve(n);
  const util::Rng root(seed);
  for (std::size_t v = 0; v < n; ++v) rngs.push_back(root.split(v));

  // Permanent selection across folds.
  std::vector<std::uint8_t> selected(n, 0);

  enum class Status : std::uint8_t { kUndecided, kJoined, kOut };

  for (std::int32_t phase = 0; phase < k; ++phase) {
    std::vector<Status> status(n, Status::kUndecided);
    for (std::size_t v = 0; v < n; ++v) {
      if (selected[v]) status[v] = Status::kOut;  // not a candidate
    }

    const std::int64_t budget = luby_phase_rounds(g.n());
    std::vector<std::uint64_t> value(n, 0);
    for (std::int64_t round = 0; round < budget; ++round) {
      // Value draw: every undecided node, fresh each round (exactly one
      // rng draw — keeps mirror/process streams aligned).
      bool any_undecided = false;
      for (std::size_t v = 0; v < n; ++v) {
        if (status[v] == Status::kUndecided) {
          // 63-bit draw: the value rides a sim::Word (int64) on the wire.
          value[v] = rngs[v]() >> 1;
          any_undecided = true;
        }
      }
      if (!any_undecided) break;  // mirror may exit early; the process
                                  // idles out the window, same result

      // Join: strict local minimum among undecided closed neighborhood,
      // ties toward the smaller node id.
      std::vector<std::uint8_t> joins(n, 0);
      for (NodeId v = 0; v < g.n(); ++v) {
        const auto vi = static_cast<std::size_t>(v);
        if (status[vi] != Status::kUndecided) continue;
        bool is_min = true;
        for (NodeId w : g.neighbors(v)) {
          const auto wi = static_cast<std::size_t>(w);
          if (status[wi] != Status::kUndecided) continue;
          if (value[wi] < value[vi] ||
              (value[wi] == value[vi] && w < v)) {
            is_min = false;
            break;
          }
        }
        if (is_min) joins[vi] = 1;
      }

      // Apply joins and knock out their neighbors.
      for (NodeId v = 0; v < g.n(); ++v) {
        const auto vi = static_cast<std::size_t>(v);
        if (!joins[vi]) continue;
        status[vi] = Status::kJoined;
        for (NodeId w : g.neighbors(v)) {
          const auto wi = static_cast<std::size_t>(w);
          if (status[wi] == Status::kUndecided) status[wi] = Status::kOut;
        }
      }
    }

    // Window end: forced joins (w.h.p. none).
    std::int64_t fold_size = 0;
    for (std::size_t v = 0; v < n; ++v) {
      if (status[v] == Status::kUndecided) {
        status[v] = Status::kJoined;
        ++result.forced_joins;
      }
      if (status[v] == Status::kJoined) {
        selected[v] = 1;
        ++fold_size;
      }
    }
    result.fold_sizes.push_back(fold_size);
  }

  for (std::size_t v = 0; v < n; ++v) {
    if (selected[v]) result.set.push_back(static_cast<NodeId>(v));
  }
  return result;
}

}  // namespace ftc::algo
