#include "util/rng.h"

#include <cassert>
#include <cmath>
#include <numbers>

namespace ftc::util {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) {
    word = splitmix64(sm);
  }
  // Guard against the (astronomically unlikely) all-zero state, which is the
  // single fixed point of xoshiro256**.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) {
    s_[0] = 0x9E3779B97F4A7C15ULL;
  }
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::uniform_u64(std::uint64_t lo, std::uint64_t hi) noexcept {
  assert(lo <= hi);
  const std::uint64_t span = hi - lo;
  if (span == max()) {
    return (*this)();
  }
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t bound = span + 1;
  const std::uint64_t limit = max() - max() % bound;
  std::uint64_t draw;
  do {
    draw = (*this)();
  } while (draw >= limit);
  return lo + draw % bound;
}

std::int64_t Rng::uniform_i64(std::int64_t lo, std::int64_t hi) noexcept {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  std::uint64_t draw = uniform_u64(0, span);
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + draw);
}

std::size_t Rng::index(std::size_t n) noexcept {
  assert(n > 0);
  return static_cast<std::size_t>(uniform_u64(0, n - 1));
}

double Rng::uniform01() noexcept {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform01();
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

double Rng::normal() noexcept {
  // Box-Muller; discards the second variate for statelessness.
  double u1 = uniform01();
  while (u1 <= 0.0) {
    u1 = uniform01();
  }
  const double u2 = uniform01();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

Rng Rng::split(std::uint64_t stream) const noexcept {
  // Hash (seed, stream) into a fresh seed; children of distinct streams are
  // decorrelated because SplitMix64 is a bijective avalanche mixer.
  std::uint64_t h = seed_ ^ (0xD1B54A32D192ED03ULL * (stream + 1));
  const std::uint64_t child_seed = splitmix64(h);
  return Rng{child_seed};
}

}  // namespace ftc::util
