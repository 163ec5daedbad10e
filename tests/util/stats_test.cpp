#include "util/stats.h"

#include <gtest/gtest.h>

#include <limits>

namespace ftc::util {
namespace {

TEST(RunningStats, EmptyDefaults) {
  RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_EQ(rs.mean(), 0.0);
  EXPECT_EQ(rs.max(), -std::numeric_limits<double>::infinity());
}

TEST(RunningStats, SingleValue) {
  RunningStats rs;
  rs.add(5.0);
  EXPECT_EQ(rs.count(), 1u);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_DOUBLE_EQ(rs.max(), 5.0);
}

TEST(RunningStats, KnownMeanAndMax) {
  RunningStats rs;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.add(x);
  EXPECT_EQ(rs.count(), 8u);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

}  // namespace
}  // namespace ftc::util
