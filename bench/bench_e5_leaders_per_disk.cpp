// E5 — Lemmas 5.5 / 5.6: the number of leaders inside any disk of radius
// 1/2 is O(1) in expectation after Part I, and O(k) after Part II.
//
// Dense uniform UDG deployments; the plane is covered with the paper's
// hexagonal lattice of radius-1/2 disks, and we count Part-I leaders and
// final leaders per disk (restricted to disks containing at least one node,
// so empty border cells don't deflate the mean).
//
// Expected shape: per-disk Part-I leader counts are small constants,
// independent of n and density; final counts scale ~linearly with k.
#include "bench_common.h"

#include <cmath>

#include "algo/udg/udg_kmds.h"
#include "geom/cover.h"
#include "geom/udg.h"
#include "util/rng.h"

int run(const ftc::util::Args& args) {
  using namespace ftc;
  const int seeds = static_cast<int>(args.get_int("seeds", 5, 1, INT32_MAX));
  const auto n =
      static_cast<graph::NodeId>(args.get_int("n", 4000, 2, INT32_MAX));
  const auto degrees = args.get_int_list("degrees", {15, 40}, 1, INT32_MAX);
  const auto k_values = args.get_int_list("k", {1, 2, 4, 8}, 1, INT32_MAX);

  bench::Output out({"avg_deg", "k", "|S1|", "|S|", "S1/disk_mean",
                     "S1/disk_max", "S/disk_mean", "S/disk_max",
                     "S/disk_mean / k"},
                    args);

  for (long long degree : degrees) {
    for (long long k : k_values) {
      util::RunningStats s1_mean, s1_max, s_mean, s_max, s1_total, s_total;
      for (int s = 0; s < seeds; ++s) {
        const std::uint64_t seed = 40 + static_cast<std::uint64_t>(s) +
                                   static_cast<std::uint64_t>(degree) * 1000;
        util::Rng rng(seed);
        const auto udg = geom::uniform_udg_with_degree(
            n, static_cast<double>(degree), rng);
        algo::UdgOptions opts;
        opts.k = static_cast<std::int32_t>(k);
        const auto result = algo::solve_udg_kmds(udg, opts, seed);
        s1_total.add(static_cast<double>(result.part1_leaders.size()));
        s_total.add(static_cast<double>(result.leaders.size()));

        // Hexagonal covering of the deployment square with 1/2-radius
        // disks, anchored at the square's center.
        double side = 0.0;
        for (const auto& p : udg.positions) {
          side = std::max({side, p.x, p.y});
        }
        const geom::Point center{side / 2.0, side / 2.0};
        const double region_radius = side * std::numbers::sqrt2 / 2.0;
        const auto centers =
            geom::hex_cover_centers(center, region_radius, 0.5);

        std::vector<graph::NodeId> everyone;
        for (graph::NodeId v = 0; v < udg.n(); ++v) everyone.push_back(v);
        const auto occupancy = geom::count_points_per_disk(
            udg.positions, everyone, centers, 0.5);
        const auto part1_counts = geom::count_points_per_disk(
            udg.positions, result.part1_leaders, centers, 0.5);
        const auto final_counts = geom::count_points_per_disk(
            udg.positions, result.leaders, centers, 0.5);

        double sum1 = 0, sumf = 0, max1 = 0, maxf = 0;
        std::size_t occupied = 0;
        for (std::size_t c = 0; c < centers.size(); ++c) {
          if (occupancy[c] == 0) continue;
          ++occupied;
          sum1 += static_cast<double>(part1_counts[c]);
          sumf += static_cast<double>(final_counts[c]);
          max1 = std::max(max1, static_cast<double>(part1_counts[c]));
          maxf = std::max(maxf, static_cast<double>(final_counts[c]));
        }
        if (occupied > 0) {
          s1_mean.add(sum1 / static_cast<double>(occupied));
          s_mean.add(sumf / static_cast<double>(occupied));
          s1_max.add(max1);
          s_max.add(maxf);
        }
      }
      out.row({util::fmt(degree), util::fmt(k), util::fmt(s1_total.mean(), 1),
               util::fmt(s_total.mean(), 1), util::fmt(s1_mean.mean(), 2),
               util::fmt(s1_max.mean(), 1), util::fmt(s_mean.mean(), 2),
               util::fmt(s_max.mean(), 1),
               util::fmt(s_mean.mean() / static_cast<double>(k), 2)});
    }
    out.rule();
  }

  out.print(
      "E5 (Lemmas 5.5/5.6) - leaders per 1/2-radius disk\n"
      "n=" + std::to_string(n) + ", " + std::to_string(seeds) +
      " seeds; only node-occupied disks counted");
  return 0;
}

int main(int argc, char** argv) {
  return ftc::util::run_cli(argc, argv, run);
}
