// Unit disk graphs (UDG): the paper's model for wireless connectivity
// (Section 3). Nodes are points in the plane; two nodes are adjacent iff
// their Euclidean distance is at most the communication radius (1.0 after
// normalization).
//
// A UnitDiskGraph carries both the combinatorial graph and the coordinates,
// because Algorithm 3 assumes nodes can sense distances to their neighbors.
#pragma once

#include <string>
#include <vector>

#include "geom/point.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace ftc::geom {

/// A unit disk graph: topology plus embedding.
struct UnitDiskGraph {
  graph::Graph graph;           ///< adjacency at distance <= radius
  std::vector<Point> positions; ///< one per node, index = NodeId
  double radius = 1.0;          ///< communication radius used to build graph

  /// Number of nodes (alias for graph.n()).
  [[nodiscard]] graph::NodeId n() const noexcept { return graph.n(); }

  /// Euclidean distance between nodes u and v. This is what the "distance
  /// sensing" assumption of Section 3 exposes to the algorithms.
  [[nodiscard]] double distance(graph::NodeId u,
                                graph::NodeId v) const noexcept {
    return dist(positions[static_cast<std::size_t>(u)],
                positions[static_cast<std::size_t>(v)]);
  }
};

/// Builds the unit disk graph over `points` with communication radius
/// `radius`: {u, v} is an edge iff dist_sq(u, v) <= radius². Bins nodes into
/// a flat grid over the bounding box and writes CSR rows directly, O(n + m)
/// for bounded densities. Throws std::invalid_argument on a non-finite
/// coordinate or a radius that is not finite and > 0.
[[nodiscard]] UnitDiskGraph build_udg(std::vector<Point> points,
                                      double radius = 1.0);

/// n points uniform in the square [0, side] x [0, side].
[[nodiscard]] std::vector<Point> uniform_points(graph::NodeId n, double side,
                                                util::Rng& rng);

/// Clustered deployment: `clusters` Gaussian blobs with the given stddev,
/// blob centers uniform in [0, side]^2, points assigned round-robin and
/// clamped into the square. Models sensor dumps / hotspots.
[[nodiscard]] std::vector<Point> clustered_points(graph::NodeId n,
                                                  graph::NodeId clusters,
                                                  double side, double stddev,
                                                  util::Rng& rng);

/// Perturbed grid: ~n points on a square lattice filling [0, side]^2, each
/// jittered uniformly by at most `jitter` in each coordinate. The returned
/// vector may have slightly fewer than n points when n is not a perfect
/// square (exactly floor(sqrt(n))^2 points).
[[nodiscard]] std::vector<Point> perturbed_grid_points(graph::NodeId n,
                                                       double side,
                                                       double jitter,
                                                       util::Rng& rng);

/// Convenience: uniform deployment scaled so the *expected average degree*
/// is `target_avg_degree` (side chosen from n and the radius-1 disk area).
/// Returns the built UDG.
[[nodiscard]] UnitDiskGraph uniform_udg_with_degree(graph::NodeId n,
                                                    double target_avg_degree,
                                                    util::Rng& rng);

/// Saves a deployment as text: header "n radius", then one "x y" line per
/// node. Edges are not stored (they are recomputed by load_udg, which is
/// cheaper and keeps the file canonical). Throws std::runtime_error on IO
/// failure.
void save_udg(const std::string& path, const UnitDiskGraph& udg);

/// Loads a deployment saved by save_udg and rebuilds its graph.
/// Throws std::runtime_error on malformed input, including input build_udg
/// rejects.
[[nodiscard]] UnitDiskGraph load_udg(const std::string& path);

/// "Quasi unit disk" radio graph: real propagation is not a clean disk
/// (the motivation for the paper's general-graph algorithms). Starting from
/// the geometric connectivity of `udg`, each link is severed (an obstacle)
/// independently with probability `sever`, and `reflect_per_node · n`
/// long-range links between uniform random pairs are added (reflections).
/// The result is a plain Graph — by construction it need not be a UDG.
[[nodiscard]] graph::Graph quasi_udg(const UnitDiskGraph& udg, double sever,
                                     double reflect_per_node, util::Rng& rng);

}  // namespace ftc::geom
