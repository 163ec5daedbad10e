#include "sim/message.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/rng.h"

namespace ftc::sim {
namespace {

// A WordSpan keeps a 32-bit length (the engine caps payloads at uint32
// words); the largest length still round-trips, and the view is never read
// here, so no payload is needed.
TEST(WordSpan, KeepsTheLargest32BitLength) {
  constexpr std::size_t kMax = std::numeric_limits<std::uint32_t>::max();
  const WordSpan span(nullptr, kMax);
  EXPECT_EQ(span.size(), kMax);
  const Message msg{span, 7};
  EXPECT_EQ(msg.words.size(), kMax);
  EXPECT_EQ(msg.from, 7);
}

TEST(WordSpanDeathTest, LengthPast32BitsAsserts) {
#ifdef NDEBUG
  GTEST_SKIP() << "the 32-bit length check is a debug assert";
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::size_t too_long =
      std::size_t{std::numeric_limits<std::uint32_t>::max()} + 1;
  EXPECT_DEATH((void)WordSpan(nullptr, too_long), "");
#endif
}

TEST(FixedPoint, RoundTripExactForRepresentable) {
  for (double v : {0.0, 0.5, 0.25, 1.0, 123.0, 0.0009765625}) {
    EXPECT_DOUBLE_EQ(decode_fixed(encode_fixed(v)), v);
  }
}

TEST(FixedPoint, QuantizationErrorBounded) {
  for (double v : {0.1, 0.3333333333, 0.7182818, 1e-7, 0.9999999}) {
    const double err = std::abs(decode_fixed(encode_fixed(v)) - v);
    EXPECT_LE(err, 0.5 / kFixedPointScale);
  }
}

TEST(FixedPoint, NegativeValues) {
  EXPECT_DOUBLE_EQ(decode_fixed(encode_fixed(-0.5)), -0.5);
  const double err = std::abs(decode_fixed(encode_fixed(-0.123)) + 0.123);
  EXPECT_LE(err, 0.5 / kFixedPointScale);
}

TEST(FixedPoint, MonotoneNonDecreasing) {
  double prev = decode_fixed(encode_fixed(0.0));
  for (int i = 1; i <= 1000; ++i) {
    const double v = static_cast<double>(i) / 1000.0;
    const double dq = decode_fixed(encode_fixed(v));
    EXPECT_GE(dq, prev);
    prev = dq;
  }
}

TEST(FixedPoint, IdempotentQuantization) {
  for (double v : {0.1, 0.77, 3.14159}) {
    const double once = decode_fixed(encode_fixed(v));
    EXPECT_DOUBLE_EQ(decode_fixed(encode_fixed(once)), once);
  }
}

// encode_fixed is an inline, libm-free form of std::llround(v · 2^40); the
// LP reference solver quantizes with std::llround itself. Pin the two bit
// for bit where they can part: ties and their neighbours, both signs, the
// 2^52 edge where every double is an integer, the 2^63 edge of the cast,
// and the values libm alone answers (NaN, ±inf, out of range).
TEST(FixedPoint, MatchesLlroundBitExactly) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {0.0, -0.0, kInf, -kInf,
                                std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::denorm_min()};
  const auto add_with_neighbours = [&values, kInf](double v) {
    for (const double s : {v, -v}) {
      values.push_back(s);
      values.push_back(std::nextafter(s, kInf));
      values.push_back(std::nextafter(s, -kInf));
    }
  };
  // Ties (k + 0.5) / 2^40, small k and k up to just below 2^52.
  for (double k = 0; k < 4096; ++k) {
    add_with_neighbours((k + 0.5) / kFixedPointScale);
  }
  for (double k = 0x1p51 - 64; k < 0x1p52; k += 0x1p45) {
    for (double d = 0; d < 64; ++d) {
      add_with_neighbours((k + d + 0.5) / kFixedPointScale);
    }
  }
  // Scaled magnitudes near 2^52 and 2^63.
  for (const double edge : {0x1p52, 0x1p63}) {
    for (double d = -4; d <= 4; ++d) {
      add_with_neighbours((edge + d * (edge / 0x1p52)) / kFixedPointScale);
    }
  }
  // Random values: the LP's range, ties at random k, and raw bit patterns.
  util::Rng rng(20261019);
  for (int i = 0; i < 1'000'000; ++i) {
    switch (i % 3) {
      case 0:
        values.push_back(rng.uniform(-2.0, 2.0));
        break;
      case 1:
        values.push_back(
            (static_cast<double>(rng.uniform_i64(-(1LL << 52), 1LL << 52)) +
             0.5) /
            kFixedPointScale);
        break;
      default:
        values.push_back(std::bit_cast<double>(rng()));
        break;
    }
  }
  std::size_t mismatches = 0;
  for (const double v : values) {
    const Word expected = std::llround(v * kFixedPointScale);
    if (encode_fixed(v) != expected) {
      if (++mismatches <= 10) {
        ADD_FAILURE() << "encode_fixed(" << v << ") = " << encode_fixed(v)
                      << ", llround gives " << expected;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace ftc::sim
