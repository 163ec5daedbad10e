// Seeded input generation for the benchmark.
//
// Every workload input is produced here from the benchmark's own splitmix64
// stream, never from the library's generators (graph::gnp,
// geom::uniform_points, util::Rng): a change to those must not be able to
// change what the benchmark measures. Each generator also folds what it
// produced into a Fingerprint, so a run can prove which input it measured.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geom/point.h"
#include "graph/graph.h"
#include "sim/mutation.h"

namespace ftcbench {

/// splitmix64 (Steele, Lea, Flood 2014): the whole input stream.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, 1) with 53 random bits.
  double uniform01() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform in [0, bound); bound >= 1. Multiply-shift, bias < 2^-32.
  std::uint64_t below(std::uint64_t bound) noexcept {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
  }

 private:
  std::uint64_t state_;
};

/// 64-bit FNV-1a over the exact bytes of an input.
class Fingerprint {
 public:
  void add(std::uint64_t v) noexcept;
  void add(double v) noexcept;
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/// G(n, p) with p = avg_degree / (n - 1), by geometric edge skipping
/// (Batagelj and Brandes 2005), plus edges from node 0 to random nodes
/// until it has hub_degree neighbors. Edges have u < v.
///
/// The hub pins Δ: Algorithm 1's thresholds are powers of (Δ+1), and Δ of
/// a plain G(n, p) is the maximum of n Poisson draws, which moves the
/// output size by about 2% from seed to seed. A hub above that maximum
/// gives every seed the same Δ, so seeds differ only in noise.
[[nodiscard]] std::vector<ftc::graph::Edge> gnp_edges(ftc::graph::NodeId n,
                                                      double avg_degree,
                                                      ftc::graph::NodeId hub_degree,
                                                      SplitMix64& rng,
                                                      Fingerprint& fp);

/// Side of the square in which n uniform points with radius 1 have the
/// expected average degree `avg_degree` (boundary effects ignored).
[[nodiscard]] double udg_side(ftc::graph::NodeId n, double avg_degree);

/// n points uniform in [0, side]^2.
[[nodiscard]] std::vector<ftc::geom::Point> uniform_points(
    ftc::graph::NodeId n, double side, SplitMix64& rng, Fingerprint& fp);

/// A replayable mutation stream cut into batches.
struct ChurnTrace {
  std::vector<ftc::sim::Mutation> mutations;
  std::vector<std::size_t> batch_begin;  ///< batch b = [begin[b], begin[b+1])

  [[nodiscard]] std::size_t batches() const noexcept {
    return batch_begin.empty() ? 0 : batch_begin.size() - 1;
  }
};

/// Churn over a radius-1 deployment of `points` in [0, side]^2: joins,
/// leaves and moves at 25/35/40%. Join and move positions are jittered by
/// up to one radius around a live node. With batch_size 1, targets are
/// uniform over live nodes. With a larger batch, each batch draws a random
/// anchor and takes every target from the live nodes within two radii of it
/// (a superset of its two-hop ball), so the batch's damage is spatially
/// clustered. The generator tracks liveness itself, so every mutation hits
/// a live node and none is a no-op.
[[nodiscard]] ChurnTrace churn_trace(const std::vector<ftc::geom::Point>& points,
                                     double side, std::size_t batches,
                                     std::size_t batch_size, SplitMix64& rng,
                                     Fingerprint& fp);

}  // namespace ftcbench
