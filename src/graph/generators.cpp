#include "graph/generators.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <set>
#include <utility>

namespace ftc::graph {

Graph gnp(NodeId n, double p, util::Rng& rng) {
  assert(n >= 0);
  assert(p >= 0.0 && p <= 1.0);
  std::vector<Edge> edges;
  if (n < 2 || p == 0.0) return Graph::from_edges(n, edges);

  if (p >= 1.0) return complete(n);

  // Geometric edge skipping (Batagelj–Brandes): walk the implicit list of
  // all pairs, jumping geometric(1-p)-distributed gaps.
  const double log1mp = std::log(1.0 - p);
  std::int64_t v = 1;
  std::int64_t w = -1;
  const std::int64_t nn = n;
  while (v < nn) {
    double u = rng.uniform01();
    while (u <= 0.0) u = rng.uniform01();
    w += 1 + static_cast<std::int64_t>(std::floor(std::log(u) / log1mp));
    while (w >= v && v < nn) {
      w -= v;
      ++v;
    }
    if (v < nn) {
      edges.push_back({static_cast<NodeId>(w), static_cast<NodeId>(v)});
    }
  }
  return Graph::from_edges(n, edges);
}

Graph gnm(NodeId n, std::size_t m, util::Rng& rng) {
  const std::size_t max_edges =
      static_cast<std::size_t>(n) * (static_cast<std::size_t>(n) - 1) / 2;
  assert(m <= max_edges);
  (void)max_edges;
  std::set<std::pair<NodeId, NodeId>> chosen;
  while (chosen.size() < m) {
    NodeId u = static_cast<NodeId>(rng.index(static_cast<std::size_t>(n)));
    NodeId v = static_cast<NodeId>(rng.index(static_cast<std::size_t>(n)));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    chosen.insert({u, v});
  }
  std::vector<Edge> edges;
  edges.reserve(m);
  for (const auto& [u, v] : chosen) edges.push_back({u, v});
  return Graph::from_edges(n, edges);
}

Graph barabasi_albert(NodeId n, NodeId attach, util::Rng& rng) {
  assert(attach >= 1 && attach < n);
  std::vector<Edge> edges;
  // `targets` holds one entry per edge endpoint, so sampling uniformly from
  // it is degree-proportional sampling.
  std::vector<NodeId> endpoints;

  // Seed clique on attach+1 nodes.
  for (NodeId u = 0; u <= attach; ++u) {
    for (NodeId v = u + 1; v <= attach; ++v) {
      edges.push_back({u, v});
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  for (NodeId v = attach + 1; v < n; ++v) {
    std::set<NodeId> picks;
    while (static_cast<NodeId>(picks.size()) < attach) {
      picks.insert(endpoints[rng.index(endpoints.size())]);
    }
    for (NodeId u : picks) {
      edges.push_back({u, v});
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  return Graph::from_edges(n, edges);
}

Graph random_tree(NodeId n, util::Rng& rng) {
  assert(n >= 0);
  if (n <= 1) return empty(n);
  if (n == 2) return Graph::from_edges(2, std::vector<Edge>{{0, 1}});

  // Prüfer sequence of length n-2 with entries in [0, n).
  std::vector<NodeId> prufer(static_cast<std::size_t>(n) - 2);
  for (auto& x : prufer) {
    x = static_cast<NodeId>(rng.index(static_cast<std::size_t>(n)));
  }
  std::vector<NodeId> degree(static_cast<std::size_t>(n), 1);
  for (NodeId x : prufer) ++degree[static_cast<std::size_t>(x)];

  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) - 1);
  // Min-leaf decoding via a sorted set of current leaves.
  std::set<NodeId> leaves;
  for (NodeId v = 0; v < n; ++v) {
    if (degree[static_cast<std::size_t>(v)] == 1) leaves.insert(v);
  }
  for (NodeId x : prufer) {
    const NodeId leaf = *leaves.begin();
    leaves.erase(leaves.begin());
    edges.push_back({leaf, x});
    if (--degree[static_cast<std::size_t>(x)] == 1) leaves.insert(x);
  }
  const NodeId a = *leaves.begin();
  const NodeId b = *std::next(leaves.begin());
  edges.push_back({a, b});
  return Graph::from_edges(n, edges);
}

Graph grid(NodeId rows, NodeId cols) {
  assert(rows >= 0 && cols >= 0);
  std::vector<Edge> edges;
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) edges.push_back({id(r, c), id(r, c + 1)});
      if (r + 1 < rows) edges.push_back({id(r, c), id(r + 1, c)});
    }
  }
  return Graph::from_edges(rows * cols, edges);
}

Graph path(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.push_back({v, static_cast<NodeId>(v + 1)});
  return Graph::from_edges(n, edges);
}

Graph cycle(NodeId n) {
  assert(n >= 3);
  std::vector<Edge> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.push_back({v, static_cast<NodeId>(v + 1)});
  edges.push_back({0, static_cast<NodeId>(n - 1)});
  return Graph::from_edges(n, edges);
}

Graph star(NodeId n) {
  assert(n >= 1);
  std::vector<Edge> edges;
  for (NodeId v = 1; v < n; ++v) edges.push_back({0, v});
  return Graph::from_edges(n, edges);
}

Graph complete(NodeId n) {
  std::vector<Edge> edges;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) edges.push_back({u, v});
  }
  return Graph::from_edges(n, edges);
}

Graph empty(NodeId n) { return Graph::from_edges(n, std::span<const Edge>{}); }

Graph random_regular(NodeId n, NodeId d, util::Rng& rng) {
  assert(d >= 0 && d < n);
  assert((static_cast<std::int64_t>(n) * d) % 2 == 0 &&
         "n*d must be even for a d-regular graph to exist");
  // Configuration model with restart on collision. For d << n the expected
  // number of restarts is O(1).
  for (int attempt = 0; attempt < 1000; ++attempt) {
    std::vector<NodeId> stubs;
    stubs.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(d));
    for (NodeId v = 0; v < n; ++v) {
      for (NodeId i = 0; i < d; ++i) stubs.push_back(v);
    }
    rng.shuffle(stubs);
    std::set<std::pair<NodeId, NodeId>> seen;
    std::vector<Edge> edges;
    bool ok = true;
    for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
      NodeId u = stubs[i];
      NodeId v = stubs[i + 1];
      if (u == v) {
        ok = false;
        break;
      }
      if (u > v) std::swap(u, v);
      if (!seen.insert({u, v}).second) {
        ok = false;
        break;
      }
      edges.push_back({u, v});
    }
    if (ok) return Graph::from_edges(n, edges);
  }
  // The chance that one pass is simple falls like e^{-(d²-1)/4}, so larger
  // d can exhaust the restarts. Start instead from a circulant d-regular
  // graph (offsets 1..⌊d/2⌋, plus the antipodal matching when d is odd; each
  // offset is below n/2 because d < n) and randomize it with double-edge
  // swaps, each of which keeps every degree and is skipped when it would
  // create a self-loop or a multi-edge.
  auto canon = [](NodeId a, NodeId b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  };
  std::vector<Edge> edges;
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId j = 1; j <= d / 2; ++j) {
      edges.push_back({v, static_cast<NodeId>((v + j) % n)});
    }
    if (d % 2 == 1 && v < n / 2) {
      edges.push_back({v, static_cast<NodeId>(v + n / 2)});
    }
  }
  std::set<std::pair<NodeId, NodeId>> present;
  for (const Edge& e : edges) present.insert(canon(e.u, e.v));
  const std::size_t swaps = 10 * edges.size();
  for (std::size_t s = 0; s < swaps && edges.size() >= 2; ++s) {
    const std::size_t i = rng.index(edges.size());
    const std::size_t j = rng.index(edges.size());
    if (i == j) continue;
    const NodeId a = edges[i].u;
    const NodeId b = edges[i].v;
    NodeId c = edges[j].u;
    NodeId e = edges[j].v;
    if (rng.bernoulli(0.5)) std::swap(c, e);
    // Rewire a-b, c-e into a-c, b-e.
    if (a == c || b == e || present.count(canon(a, c)) != 0 ||
        present.count(canon(b, e)) != 0) {
      continue;
    }
    present.erase(canon(a, b));
    present.erase(canon(c, e));
    present.insert(canon(a, c));
    present.insert(canon(b, e));
    edges[i] = {a, c};
    edges[j] = {b, e};
  }
  return Graph::from_edges(n, edges);
}

Graph watts_strogatz(NodeId n, NodeId k_nearest, double beta,
                     util::Rng& rng) {
  assert(n >= 3);
  assert(k_nearest >= 2 && k_nearest % 2 == 0 && k_nearest < n);
  assert(beta >= 0.0 && beta <= 1.0);

  // Adjacency as a set for O(log) duplicate checks during rewiring.
  std::set<std::pair<NodeId, NodeId>> edge_set;
  auto canon = [](NodeId a, NodeId b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  };
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId d = 1; d <= k_nearest / 2; ++d) {
      edge_set.insert(canon(v, static_cast<NodeId>((v + d) % n)));
    }
  }

  // Rewire: iterate over the original lattice edges in deterministic order.
  std::vector<std::pair<NodeId, NodeId>> lattice(edge_set.begin(),
                                                 edge_set.end());
  for (const auto& [u, v] : lattice) {
    if (!rng.bernoulli(beta)) continue;
    // Replace {u, v} with {u, w} for a random w; keep the graph simple.
    for (int attempt = 0; attempt < 64; ++attempt) {
      const auto w =
          static_cast<NodeId>(rng.index(static_cast<std::size_t>(n)));
      if (w == u || edge_set.count(canon(u, w)) != 0) continue;
      edge_set.erase(canon(u, v));
      edge_set.insert(canon(u, w));
      break;
    }
  }

  std::vector<Edge> edges;
  edges.reserve(edge_set.size());
  for (const auto& [u, v] : edge_set) edges.push_back({u, v});
  return Graph::from_edges(n, edges);
}

Graph caveman(NodeId cliques, NodeId clique_size) {
  assert(cliques >= 1 && clique_size >= 1);
  std::vector<Edge> edges;
  const NodeId n = cliques * clique_size;
  for (NodeId c = 0; c < cliques; ++c) {
    const NodeId base = c * clique_size;
    for (NodeId i = 0; i < clique_size; ++i) {
      for (NodeId j = i + 1; j < clique_size; ++j) {
        edges.push_back({static_cast<NodeId>(base + i),
                         static_cast<NodeId>(base + j)});
      }
    }
    if (c + 1 < cliques) {
      // Bridge: last node of this clique to first node of the next.
      edges.push_back({static_cast<NodeId>(base + clique_size - 1),
                       static_cast<NodeId>(base + clique_size)});
    }
  }
  return Graph::from_edges(n, edges);
}

}  // namespace ftc::graph
