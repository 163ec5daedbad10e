#include "domination/domination.h"

#include <algorithm>
#include <cassert>

#include "domination/kernels.h"

namespace ftc::domination {

using graph::NodeId;

Demands uniform_demands(NodeId n, std::int32_t k) {
  assert(n >= 0 && k >= 0);
  return Demands(static_cast<std::size_t>(n), k);
}

std::vector<std::int32_t> closed_coverage_counts(
    const graph::Graph& g, std::span<const std::uint8_t> members) {
  assert(static_cast<NodeId>(members.size()) == g.n());
  std::vector<std::int32_t> cover(static_cast<std::size_t>(g.n()), 0);
  for (NodeId v = 0; v < g.n(); ++v) {
    const auto idx = static_cast<std::size_t>(v);
    if (members[idx]) cover[idx] += 1;  // self-coverage (closed neighborhood)
    for (NodeId w : g.neighbors(v)) {
      if (members[static_cast<std::size_t>(w)]) cover[idx] += 1;
    }
  }
  return cover;
}

std::vector<std::uint8_t> to_membership(const graph::Graph& g,
                                std::span<const NodeId> set) {
  std::vector<std::uint8_t> members(static_cast<std::size_t>(g.n()), false);
  for (NodeId v : set) {
    assert(v >= 0 && v < g.n());
    members[static_cast<std::size_t>(v)] = true;
  }
  return members;
}

std::vector<NodeId> to_node_list(std::span<const std::uint8_t> members) {
  std::vector<NodeId> out;
  for (std::size_t v = 0; v < members.size(); ++v) {
    if (members[v]) out.push_back(static_cast<NodeId>(v));
  }
  return out;
}

std::int64_t deficiency(const graph::Graph& g, std::span<const NodeId> set,
                        const Demands& demands, Mode mode) {
  // Convenience wrapper over the packed kernels (kernels.h); hot callers
  // hold a CoverageScratch and use the no-alloc overload directly. The
  // packed path is property-tested equal to the scalar composition
  // to_membership + closed_coverage_counts + shortfall accumulation.
  CoverageScratch scratch;
  return deficiency(g, set, demands, mode, scratch);
}

bool is_k_dominating(const graph::Graph& g, std::span<const NodeId> set,
                     const Demands& demands, Mode mode) {
  return deficiency(g, set, demands, mode) == 0;
}

bool is_k_dominating(const graph::Graph& g, std::span<const NodeId> set,
                     std::int32_t k, Mode mode) {
  return is_k_dominating(g, set, uniform_demands(g.n(), k), mode);
}

bool instance_feasible(const graph::Graph& g, const Demands& demands,
                       Mode mode) {
  assert(static_cast<NodeId>(demands.size()) == g.n());
  if (mode == Mode::kOpenForNonMembers) return true;  // S = V always works
  for (NodeId v = 0; v < g.n(); ++v) {
    if (demands[static_cast<std::size_t>(v)] > g.degree(v) + 1) return false;
  }
  return true;
}

Demands clamp_demands(const graph::Graph& g, const Demands& demands) {
  assert(static_cast<NodeId>(demands.size()) == g.n());
  Demands out = demands;
  for (NodeId v = 0; v < g.n(); ++v) {
    out[static_cast<std::size_t>(v)] =
        std::min(out[static_cast<std::size_t>(v)], g.degree(v) + 1);
  }
  return out;
}

Demands live_demands(const graph::Graph& live, std::span<const NodeId> dead,
                     const Demands& demands) {
  Demands out = clamp_demands(live, demands);
  for (NodeId v : dead) out[static_cast<std::size_t>(v)] = 0;
  return out;
}

}  // namespace ftc::domination
