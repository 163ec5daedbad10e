// E6 — Figure 1 + Lemma 5.3: the hexagonal-lattice covering geometry that
// drives Algorithm 3's analysis, reproduced numerically.
//
// For every Part-I round i of a given n, the analysis covers a disk C of
// radius 1/2 with lattice disks C_i of radius θ_i/2 and claims
//   α(i) < η/(4θ_i²),  η = 16π/(3√3)             (Lemma 5.3)
// and that the concentric disk D_i of radius 3θ_i/2 fully or partially
// covers 19 of the C_i (Figure 1). We print measured α(i) against the
// bound, plus the covering-density sanity value and the Figure-1 count.
#include "bench_common.h"

#include <cmath>
#include <iostream>

#include "algo/udg/udg_kmds.h"
#include "geom/cover.h"

int run(const ftc::util::Args& args) {
  using namespace ftc;
  const auto n =
      static_cast<graph::NodeId>(args.get_int("n", 100000, 2, INT32_MAX));

  std::cout << "Figure 1 check: D_i intersects "
            << geom::disks_intersecting_big_disk()
            << " lattice disks C_i (paper: 19)\n";
  std::cout << "eta = 16*pi/(3*sqrt(3)) = " << util::fmt(geom::lemma53_eta(), 6)
            << "\n\n";

  bench::Output out({"round_i", "theta_i", "alpha_measured", "lemma53_bound",
                     "margin", "covering_ok"},
                    args);

  const std::int64_t rounds = algo::udg_part1_rounds(n);
  double theta = algo::udg_initial_theta(n);
  for (std::int64_t i = 1; i <= rounds; ++i) {
    const double disk_radius = theta / 2.0;
    const auto measured =
        static_cast<double>(geom::measured_alpha(0.5, disk_radius));
    const double bound = geom::lemma53_bound(disk_radius);
    const bool complete = geom::covering_is_complete(
        {0.0, 0.0}, 0.5, disk_radius, std::max(disk_radius / 4.0, 1e-3));
    out.row({util::fmt(i), util::fmt(theta, 5), util::fmt(measured, 0),
             util::fmt(bound, 1), util::fmt(bound / measured, 2),
             complete ? "yes" : "NO"});
    theta *= 2.0;
  }

  out.print(
      "E6 (Lemma 5.3 / Figure 1) - hexagonal covering per Part-I round, n=" +
      std::to_string(n));
  return 0;
}

int main(int argc, char** argv) {
  return ftc::util::run_cli(argc, argv, run);
}
