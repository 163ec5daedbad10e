// Random and structured graph generators for the general-graph experiments.
//
// Section 4 of the paper analyzes arbitrary graphs; the experiment suite
// exercises Algorithm 1/2 on Erdős–Rényi, power-law (preferential
// attachment), grid, tree, and extremal topologies, all generated here.
// Unit disk graphs live in geom/udg.h because they carry coordinates.
#pragma once

#include <cstdint>

#include "graph/graph.h"
#include "util/rng.h"

namespace ftc::graph {

/// Erdős–Rényi G(n, p): each of the n(n-1)/2 possible edges present
/// independently with probability p. Uses geometric skipping, so the cost is
/// O(n + m), fine for sparse large graphs.
[[nodiscard]] Graph gnp(NodeId n, double p, util::Rng& rng);

/// Uniform random graph G(n, m) with exactly m distinct edges.
/// Precondition: m <= n(n-1)/2.
[[nodiscard]] Graph gnm(NodeId n, std::size_t m, util::Rng& rng);

/// Barabási–Albert preferential attachment: starts from a clique on
/// `attach + 1` nodes, then each new node attaches to `attach` existing
/// nodes chosen proportionally to degree. Produces a power-law degree
/// distribution — high-Δ stress for the (Δ+1)^{1/t} terms of Theorem 4.5.
/// Precondition: 1 <= attach < n.
[[nodiscard]] Graph barabasi_albert(NodeId n, NodeId attach, util::Rng& rng);

/// Uniform random labeled tree on n nodes (Prüfer-sequence construction).
[[nodiscard]] Graph random_tree(NodeId n, util::Rng& rng);

/// rows × cols 4-neighbor grid (n = rows*cols, node r*cols+c).
[[nodiscard]] Graph grid(NodeId rows, NodeId cols);

/// Simple path 0-1-2-...-(n-1).
[[nodiscard]] Graph path(NodeId n);

/// Cycle on n >= 3 nodes.
[[nodiscard]] Graph cycle(NodeId n);

/// Star: node 0 adjacent to all others.
[[nodiscard]] Graph star(NodeId n);

/// Complete graph K_n.
[[nodiscard]] Graph complete(NodeId n);

/// Graph with n nodes and no edges.
[[nodiscard]] Graph empty(NodeId n);

/// Random simple d-regular graph via the configuration model with rejection
/// of self-loops/multi-edges (up to 1000 restarts; if all fail, a circulant
/// d-regular graph randomized by double-edge swaps). Preconditions: n*d even
/// and 0 <= d < n.
[[nodiscard]] Graph random_regular(NodeId n, NodeId d, util::Rng& rng);

/// "Caveman" clustered graph: `cliques` cliques of size `clique_size`,
/// with each consecutive pair of cliques joined by one bridge edge.
/// Models the clustered topologies common in sensor deployments.
[[nodiscard]] Graph caveman(NodeId cliques, NodeId clique_size);

/// Watts–Strogatz small world: a ring lattice where every node connects to
/// its `k_nearest/2` nearest neighbors on each side (k_nearest must be even
/// and < n), then each lattice edge is rewired to a uniform random endpoint
/// with probability `beta` (avoiding self-loops and duplicates). β=0 gives
/// the pure lattice, β=1 approaches G(n, k/n). A standard model for ad hoc
/// networks with a few long-range shortcuts.
[[nodiscard]] Graph watts_strogatz(NodeId n, NodeId k_nearest, double beta,
                                   util::Rng& rng);

}  // namespace ftc::graph
