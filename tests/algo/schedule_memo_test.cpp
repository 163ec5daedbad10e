// The per-network schedule constants (udg_schedule, lp_power,
// rounding_log_d1) keep a per-thread memo of their last inputs. Whatever
// order one thread asks for keys in, every answer must carry exactly the
// bits of the direct libm expression: the mirror ≡ process contracts and
// the width-determinism suites rely on it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "algo/lp/lp_kmds.h"
#include "algo/rounding/rounding.h"
#include "algo/udg/udg_kmds.h"

namespace ftc::algo {
namespace {

using graph::NodeId;

template <typename T>
bool same_bits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

struct UdgKey {
  NodeId n;
  double xi;
  double theta_scale;
};

void expect_direct_udg(const UdgKey& key) {
  const UdgOptions options{.xi = key.xi, .theta_scale = key.theta_scale};
  const UdgSchedule got = udg_schedule(key.n, options);
  const std::int64_t rounds = udg_part1_rounds_ex(key.n, key.xi);
  const std::uint64_t id_max = udg_id_range(key.n);
  const double theta1 = udg_initial_theta_ex(key.n, key.xi, key.theta_scale);
  EXPECT_TRUE(same_bits(got.part1_rounds, rounds))
      << "n=" << key.n << " xi=" << key.xi << " scale=" << key.theta_scale;
  EXPECT_TRUE(same_bits(got.id_max, id_max))
      << "n=" << key.n << " xi=" << key.xi << " scale=" << key.theta_scale;
  EXPECT_TRUE(same_bits(got.theta1, theta1))
      << "n=" << key.n << " xi=" << key.xi << " scale=" << key.theta_scale;
}

// Every ordered pair of keys is looked up back to back, so each key
// follows one that differs from it in n alone, in ξ alone and in the
// θ-scale alone: a memo whose key compare skips a field returns a stale
// schedule for some pair.
TEST(ScheduleMemo, UdgScheduleIsBitwiseTheDirectExpressions) {
  std::vector<UdgKey> keys;
  for (const NodeId n : {2, 3, 4, 5, 1000, 4000, 1000000}) {
    for (const double xi : {1.5, 2.0}) {
      for (const double scale : {1.0, 0.5}) keys.push_back({n, xi, scale});
    }
  }
  for (const UdgKey& first : keys) {
    for (const UdgKey& second : keys) {
      expect_direct_udg(first);
      expect_direct_udg(second);
      expect_direct_udg(second);  // a hit right after the miss
    }
  }
}

struct PowKey {
  double d1;
  int t;
};

void expect_direct_row(const PowKey& key) {
  for (int e = -(key.t - 1); e <= key.t; ++e) {
    const double direct = std::pow(key.d1, static_cast<double>(e) / key.t);
    EXPECT_TRUE(same_bits(lp_power(key.d1, key.t, e), direct))
        << "d1=" << key.d1 << " t=" << key.t << " e=" << e;
  }
  // The negative entries are the process's former increment expression.
  for (int q = 0; q < key.t; ++q) {
    const double direct = std::pow(key.d1, -static_cast<double>(q) / key.t);
    EXPECT_TRUE(same_bits(lp_power(key.d1, key.t, -q), direct))
        << "d1=" << key.d1 << " t=" << key.t << " q=" << q;
  }
}

TEST(ScheduleMemo, LpPowerIsBitwiseTheDirectExpression) {
  std::vector<PowKey> keys;
  for (const double d1 : {1.0, 2.0, 17.0, 32.0, 1e6 + 1.0}) {
    for (int t = 1; t <= 6; ++t) keys.push_back({d1, t});
  }
  for (const PowKey& first : keys) {
    for (const PowKey& second : keys) {
      // A partly filled row (its threshold only) meets a full lookup of
      // the next key, then the first row is re-read in full.
      (void)lp_power(first.d1, first.t, first.t - 1);
      expect_direct_row(second);
      expect_direct_row(first);
    }
  }
  // Rows wider than the memo are computed directly.
  expect_direct_row({17.0, 40});
  expect_direct_row({17.0, 3});
  expect_direct_row({17.0, 40});
}

TEST(ScheduleMemo, RoundingLogIsBitwiseTheDirectExpression) {
  const NodeId degrees[] = {0, 1, 16, 31, 1000000};
  for (const NodeId first : degrees) {
    for (const NodeId second : degrees) {
      for (const NodeId delta : {first, second, second}) {
        const double direct = std::log(static_cast<double>(delta) + 1.0);
        EXPECT_TRUE(same_bits(rounding_log_d1(delta), direct))
            << "max_degree=" << delta;
      }
    }
  }
}

}  // namespace
}  // namespace ftc::algo
