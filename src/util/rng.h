// Deterministic random number generation for reproducible experiments.
//
// Every source of randomness in the library flows through util::Rng, seeded
// explicitly by the caller. Rng::split() derives statistically independent
// child streams (e.g. one per simulated node) from a parent seed, so a whole
// distributed execution is a pure function of a single 64-bit seed.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace ftc::util {

/// Mixes a 64-bit value through the SplitMix64 finalizer. Used both as the
/// seed-expansion function and as the stream-splitting hash.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Deterministic pseudo-random generator (xoshiro256** core, SplitMix64
/// seeding). Satisfies the needs of simulation workloads: fast, 2^256-1
/// period, and cheap to fork into independent streams.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Constructs a generator whose entire future output is determined by
  /// `seed`. Two Rng objects with equal seeds produce equal sequences.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  /// Minimum value returned by operator() (for UniformRandomBitGenerator).
  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  /// Maximum value returned by operator() (for UniformRandomBitGenerator).
  [[nodiscard]] static constexpr result_type max() noexcept {
    return ~std::uint64_t{0};
  }

  /// Returns the next 64 uniformly distributed bits.
  result_type operator()() noexcept;

  /// Returns a uniformly distributed integer in the closed range [lo, hi].
  /// Precondition: lo <= hi.
  [[nodiscard]] std::uint64_t uniform_u64(std::uint64_t lo,
                                          std::uint64_t hi) noexcept;

  /// Returns a uniformly distributed integer in the closed range [lo, hi].
  /// Precondition: lo <= hi.
  [[nodiscard]] std::int64_t uniform_i64(std::int64_t lo,
                                         std::int64_t hi) noexcept;

  /// Returns a uniformly distributed index in [0, n). Precondition: n > 0.
  [[nodiscard]] std::size_t index(std::size_t n) noexcept;

  /// Returns a double uniformly distributed in [0, 1).
  [[nodiscard]] double uniform01() noexcept;

  /// Returns a double uniformly distributed in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// Returns true with probability p (clamped to [0, 1]).
  [[nodiscard]] bool bernoulli(double p) noexcept;

  /// Returns a standard normal (mean 0, stddev 1) variate via Box-Muller.
  [[nodiscard]] double normal() noexcept;

  /// Returns an exponentially distributed variate with rate lambda > 0.
  [[nodiscard]] double exponential(double lambda) noexcept;

  /// Derives an independent child generator identified by `stream`.
  /// split(a) and split(b) for a != b yield decorrelated sequences, and the
  /// parent's own sequence is unaffected (the parent state is hashed, not
  /// advanced).
  [[nodiscard]] Rng split(std::uint64_t stream) const noexcept;

  /// Fisher-Yates shuffles `items` in place.
  template <typename T>
  void shuffle(std::vector<T>& items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      using std::swap;
      swap(items[i - 1], items[index(i)]);
    }
  }

 private:
  std::uint64_t s_[4];
  std::uint64_t seed_;  // retained so split() can derive children
};

}  // namespace ftc::util
