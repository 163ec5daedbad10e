#include "geom/svg.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <string>

#include "util/rng.h"

namespace ftc::geom {
namespace {

UnitDiskGraph tiny_udg() {
  return build_udg({{0.0, 0.0}, {0.5, 0.0}, {0.5, 0.5}, {3.0, 3.0}}, 1.0);
}

std::string render(const UnitDiskGraph& udg,
                   std::span<const SvgLayer> layers) {
  std::ostringstream os;
  write_svg(os, udg, layers);
  return os.str();
}

std::size_t count_of(const std::string& haystack, const std::string& needle) {
  std::size_t count = 0, pos = 0;
  while ((pos = haystack.find(needle, pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  return count;
}

TEST(Svg, WellFormedEnvelope) {
  const auto udg = tiny_udg();
  const std::string svg = render(udg, {});
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // One circle per node.
  EXPECT_EQ(count_of(svg, "<circle"), 4u);
}

TEST(Svg, OneLinePerEdge) {
  const auto udg = tiny_udg();
  EXPECT_EQ(count_of(render(udg, {}), "<line"), udg.graph.m());
}

TEST(Svg, LayersRenderWithColorAndLegend) {
  const auto udg = tiny_udg();
  SvgLayer layer;
  layer.nodes = {0, 2};
  layer.color = "#ff0000";
  layer.label = "backbone";
  const std::vector<SvgLayer> layers{layer};
  const std::string svg = render(udg, layers);
  EXPECT_NE(svg.find("#ff0000"), std::string::npos);
  EXPECT_NE(svg.find(">backbone</text>"), std::string::npos);
}

TEST(Svg, CoordinatesStayOnCanvas) {
  util::Rng rng(1);
  const auto udg = build_udg(uniform_points(100, 7.0, rng), 1.0);
  const std::string svg = render(udg, {});
  // Parse all cx values and check bounds.
  std::istringstream lines(svg);
  std::string line;
  while (std::getline(lines, line)) {
    const auto pos = line.find("cx=\"");
    if (pos == std::string::npos) continue;
    const double cx = std::stod(line.substr(pos + 4));
    EXPECT_GE(cx, 0.0);
    EXPECT_LE(cx, 800.0);
  }
}

TEST(Svg, SaveAndReload) {
  const std::string path = ::testing::TempDir() + "/ftc_svg_test.svg";
  const auto udg = tiny_udg();
  save_svg(path, udg, {});
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string first;
  std::getline(in, first);
  EXPECT_EQ(first.rfind("<svg", 0), 0u);
  std::remove(path.c_str());
}

TEST(Svg, SaveToBadPathThrows) {
  EXPECT_THROW(save_svg("/nonexistent_zzz/x.svg", tiny_udg(), {}),
               std::runtime_error);
}

TEST(Svg, EmptyDeployment) {
  UnitDiskGraph udg;
  const std::string svg = render(udg, {});
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

}  // namespace
}  // namespace ftc::geom
