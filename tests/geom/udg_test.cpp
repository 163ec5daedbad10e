#include "geom/udg.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>


namespace ftc::geom {
namespace {

using graph::NodeId;

TEST(BuildUdg, EdgeIffWithinRadius) {
  const std::vector<Point> pts{{0, 0}, {0.5, 0}, {2.0, 0}, {0.5, 0.5}};
  const UnitDiskGraph udg = build_udg(pts, 1.0);
  EXPECT_TRUE(udg.graph.has_edge(0, 1));    // dist 0.5
  EXPECT_FALSE(udg.graph.has_edge(0, 2));   // dist 2.0
  EXPECT_TRUE(udg.graph.has_edge(0, 3));    // dist ~0.707
  EXPECT_TRUE(udg.graph.has_edge(1, 3));    // dist 0.5
  EXPECT_FALSE(udg.graph.has_edge(2, 3));   // dist ~1.58
}

TEST(BuildUdg, BruteForceAgreement) {
  util::Rng rng(7);
  const auto pts = uniform_points(200, 5.0, rng);
  const UnitDiskGraph udg = build_udg(pts, 1.0);
  for (NodeId u = 0; u < udg.n(); ++u) {
    for (NodeId v = static_cast<NodeId>(u + 1); v < udg.n(); ++v) {
      const bool expected =
          dist(pts[static_cast<std::size_t>(u)],
               pts[static_cast<std::size_t>(v)]) <= 1.0;
      EXPECT_EQ(udg.graph.has_edge(u, v), expected)
          << "pair (" << u << "," << v << ")";
    }
  }
}

TEST(BuildUdg, ExactBoundaryDistanceIsEdge) {
  const std::vector<Point> pts{{0, 0}, {1.0, 0}};
  const UnitDiskGraph udg = build_udg(pts, 1.0);
  EXPECT_TRUE(udg.graph.has_edge(0, 1));
}

TEST(BuildUdg, CustomRadius) {
  const std::vector<Point> pts{{0, 0}, {1.5, 0}};
  EXPECT_FALSE(build_udg(pts, 1.0).graph.has_edge(0, 1));
  EXPECT_TRUE(build_udg(pts, 2.0).graph.has_edge(0, 1));
}

TEST(BuildUdg, EmptyInput) {
  const UnitDiskGraph udg = build_udg({}, 1.0);
  EXPECT_EQ(udg.n(), 0);
}

TEST(UnitDiskGraph, DistanceMatchesPoints) {
  const std::vector<Point> pts{{0, 0}, {0.6, 0.8}};
  const UnitDiskGraph udg = build_udg(pts, 2.0);
  EXPECT_NEAR(udg.distance(0, 1), 1.0, 1e-12);
}

TEST(UniformPoints, StayInSquare) {
  util::Rng rng(1);
  for (const Point& p : uniform_points(500, 3.0, rng)) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 3.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 3.0);
  }
}

TEST(UniformPoints, CorrectCount) {
  util::Rng rng(2);
  EXPECT_EQ(uniform_points(123, 1.0, rng).size(), 123u);
  EXPECT_TRUE(uniform_points(0, 1.0, rng).empty());
}

TEST(ClusteredPoints, StayInSquareAndCount) {
  util::Rng rng(3);
  const auto pts = clustered_points(200, 5, 10.0, 0.5, rng);
  EXPECT_EQ(pts.size(), 200u);
  for (const Point& p : pts) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 10.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 10.0);
  }
}

TEST(ClusteredPoints, ZeroStddevPutsPointsOnCenters) {
  util::Rng rng(4);
  const auto pts = clustered_points(10, 2, 10.0, 0.0, rng);
  // Points alternate between exactly two distinct locations.
  EXPECT_EQ(pts[0], pts[2]);
  EXPECT_EQ(pts[1], pts[3]);
}

TEST(PerturbedGrid, CountIsFloorSqrtSquared) {
  util::Rng rng(5);
  EXPECT_EQ(perturbed_grid_points(100, 10.0, 0.1, rng).size(), 100u);
  EXPECT_EQ(perturbed_grid_points(90, 10.0, 0.1, rng).size(), 81u);
  EXPECT_TRUE(perturbed_grid_points(0, 10.0, 0.1, rng).empty());
}

TEST(PerturbedGrid, ZeroJitterIsRegular) {
  util::Rng rng(6);
  const auto pts = perturbed_grid_points(9, 3.0, 0.0, rng);
  ASSERT_EQ(pts.size(), 9u);
  EXPECT_DOUBLE_EQ(pts[0].x, 0.5);
  EXPECT_DOUBLE_EQ(pts[0].y, 0.5);
  EXPECT_DOUBLE_EQ(pts[8].x, 2.5);
  EXPECT_DOUBLE_EQ(pts[8].y, 2.5);
}

TEST(UniformUdgWithDegree, HitsTargetDegree) {
  util::Rng rng(8);
  const UnitDiskGraph udg = uniform_udg_with_degree(2000, 12.0, rng);
  // Boundary effects push the average slightly below target.
  const double avg = 2.0 * static_cast<double>(udg.graph.m()) /
                     static_cast<double>(udg.graph.n());
  EXPECT_GT(avg, 7.0);
  EXPECT_LT(avg, 14.0);
}


TEST(QuasiUdg, NoChangeWithZeroParameters) {
  util::Rng rng(30);
  const UnitDiskGraph udg = uniform_udg_with_degree(100, 10.0, rng);
  const auto radio = quasi_udg(udg, 0.0, 0.0, rng);
  EXPECT_EQ(radio.edges(), udg.graph.edges());
}

TEST(QuasiUdg, FullSeverRemovesGeometricEdges) {
  util::Rng rng(31);
  const UnitDiskGraph udg = uniform_udg_with_degree(100, 10.0, rng);
  const auto radio = quasi_udg(udg, 1.0, 0.0, rng);
  EXPECT_EQ(radio.m(), 0u);
}

TEST(QuasiUdg, ReflectionsAddLongLinks) {
  util::Rng rng(32);
  const UnitDiskGraph udg = uniform_udg_with_degree(200, 8.0, rng);
  const auto radio = quasi_udg(udg, 0.0, 0.5, rng);
  EXPECT_GT(radio.m(), udg.graph.m());
  // At least one added link must be longer than the radio range.
  bool long_link = false;
  for (const graph::Edge& e : radio.edges()) {
    if (udg.distance(e.u, e.v) > udg.radius) {
      long_link = true;
      break;
    }
  }
  EXPECT_TRUE(long_link);
}

TEST(QuasiUdg, SeverRateApproximatelyRespected) {
  util::Rng rng(33);
  const UnitDiskGraph udg = uniform_udg_with_degree(500, 12.0, rng);
  const auto radio = quasi_udg(udg, 0.3, 0.0, rng);
  const double kept = static_cast<double>(radio.m()) /
                      static_cast<double>(udg.graph.m());
  EXPECT_NEAR(kept, 0.7, 0.05);
}


TEST(UdgIo, RoundTripPreservesDeployment) {
  const std::string path = ::testing::TempDir() + "/ftc_udg_test.udg";
  util::Rng rng(40);
  const UnitDiskGraph original = uniform_udg_with_degree(150, 10.0, rng);
  save_udg(path, original);
  const UnitDiskGraph loaded = load_udg(path);
  EXPECT_EQ(loaded.n(), original.n());
  EXPECT_DOUBLE_EQ(loaded.radius, original.radius);
  EXPECT_EQ(loaded.positions, original.positions);
  EXPECT_EQ(loaded.graph.edges(), original.graph.edges());
  std::remove(path.c_str());
}

TEST(UdgIo, LoadMissingFileThrows) {
  EXPECT_THROW((void)load_udg("/nonexistent_zzz/x.udg"), std::runtime_error);
}

TEST(UdgIo, MalformedHeaderThrows) {
  const std::string path = ::testing::TempDir() + "/ftc_udg_bad.udg";
  {
    std::ofstream out(path);
    out << "not a header\n";
  }
  EXPECT_THROW((void)load_udg(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(UdgIo, TruncatedPointsThrow) {
  const std::string path = ::testing::TempDir() + "/ftc_udg_trunc.udg";
  {
    std::ofstream out(path);
    out << "3 1.0\n0 0\n1 1\n";  // promises 3, delivers 2
  }
  EXPECT_THROW((void)load_udg(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(UdgIo, OversizedOrDegenerateHeaderThrows) {
  const std::string path = ::testing::TempDir() + "/ftc_udg_huge.udg";
  for (const char* header : {"3000000000 1.0\n0 0\n", "2 0\n0 0\n1 1\n",
                             "2 1e999\n0 0\n1 1\n"}) {
    {
      std::ofstream out(path);
      out << header;
    }
    EXPECT_THROW((void)load_udg(path), std::runtime_error) << header;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ftc::geom
