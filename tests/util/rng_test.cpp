#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace ftc::util {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDifferentSequences) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() != b()) ++differing;
  }
  EXPECT_GT(differing, 60);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / trials, 0.5, 0.01);
}

TEST(Rng, UniformU64RespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_u64(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, UniformU64SingletonRange) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.uniform_u64(7, 7), 7u);
  }
}

TEST(Rng, UniformU64CoversAllValues) {
  Rng rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_u64(0, 4));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformI64HandlesNegativeRange) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_i64(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, IndexWithinBounds) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.index(17), 17u);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-1.0));
    EXPECT_TRUE(rng.bernoulli(2.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(31);
  double sum = 0.0, sq = 0.0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / trials, 0.0, 0.02);
  EXPECT_NEAR(sq / trials, 1.0, 0.03);
}

TEST(Rng, SplitIsDeterministic) {
  const Rng parent(99);
  Rng a = parent.split(5);
  Rng b = parent.split(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, SplitStreamsAreDecorrelated) {
  const Rng parent(99);
  Rng a = parent.split(1);
  Rng b = parent.split(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(Rng, SplitDoesNotAdvanceParent) {
  Rng parent(7);
  Rng copy(7);
  (void)parent.split(3);
  EXPECT_EQ(parent(), copy());
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(41);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng rng(43);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  const auto original = v;
  rng.shuffle(v);
  EXPECT_NE(v, original);  // probability of identity ~ 1/100!
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  static_assert(Rng::min() == 0);
  static_assert(Rng::max() == ~std::uint64_t{0});
  Rng rng(1);
  (void)rng();
}

}  // namespace
}  // namespace ftc::util
