/// \file rng.hpp
/// Deterministic, explicitly-seeded random number generation for experiment
/// reproducibility. Wraps xoshiro256** (public-domain algorithm by Blackman &
/// Vigna) seeded through SplitMix64, so a single 64-bit seed fully determines
/// every experiment; all figure benches print their seed.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace caft {

/// xoshiro256** generator with convenience draws used across the library.
/// Satisfies UniformRandomBitGenerator so it also plugs into <random> if
/// ever needed, but all library sampling goes through the members below to
/// keep results stable across standard-library implementations.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  [[nodiscard]] static constexpr result_type min() { return 0; }
  [[nodiscard]] static constexpr result_type max() { return ~result_type{0}; }

  /// Next raw 64-bit draw.
  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform01();
  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);
  /// Uniform integer in the inclusive range [lo, hi]. Requires lo <= hi.
  std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi);
  /// Bernoulli draw with probability `p` of true.
  bool bernoulli(double p);

  /// Exponential draw with rate `rate` (mean 1/rate). Requires rate > 0.
  /// Used for memoryless processor lifetimes in the fault-injection
  /// campaign (constant hazard rate).
  double exponential(double rate);
  /// Weibull draw with shape k and scale λ (both > 0): λ·(-ln U)^(1/k).
  /// Shape < 1 models infant mortality, shape > 1 wear-out — the two
  /// lifetime regimes the exponential cannot express.
  double weibull(double shape, double scale);

  /// Fisher–Yates shuffle of `items`.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_int(0, i - 1));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Draws `k` distinct values from {0, 1, ..., n-1} (k <= n), in random order.
  std::vector<std::size_t> sample_without_replacement(std::size_t n, std::size_t k);
  /// The same draw into a caller-owned buffer: `pool` is resized to n and
  /// its first k entries become the sample — no allocation once `pool` has
  /// grown to n.
  void sample_without_replacement(std::size_t n, std::size_t k,
                                  std::vector<std::size_t>& pool);

  /// Derives an independent child generator; used to give each experiment
  /// repetition its own stream so repetitions can be reordered freely.
  [[nodiscard]] Rng split() { return Rng(split_seed()); }
  /// The seed of the child split() would derive, advancing this stream the
  /// same way: Rng(split_seed()) is split(). Lets a caller draw the seeds
  /// in order and construct the children elsewhere (on worker threads).
  [[nodiscard]] std::uint64_t split_seed();

 private:
  std::uint64_t s_[4];
};

}  // namespace caft
