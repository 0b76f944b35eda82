#include "common/rng.hpp"

#include <cmath>

namespace caft {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // All-zero state would lock xoshiro at zero; SplitMix64 cannot emit four
  // zeros for any seed, but guard anyway for safety against future edits.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

Rng::result_type Rng::operator()() {
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

double Rng::uniform01() {
  // 53 top bits -> double in [0,1) with full mantissa resolution.
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  CAFT_CHECK_MSG(lo <= hi, "uniform(lo, hi) requires lo <= hi");
  return lo + (hi - lo) * uniform01();
}

std::uint64_t Rng::uniform_int(std::uint64_t lo, std::uint64_t hi) {
  CAFT_CHECK_MSG(lo <= hi, "uniform_int(lo, hi) requires lo <= hi");
  const std::uint64_t span = hi - lo;
  if (span == max()) return (*this)();
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t n = span + 1;
  const std::uint64_t limit = max() - max() % n;
  std::uint64_t draw;
  do {
    draw = (*this)();
  } while (draw >= limit);
  return lo + draw % n;
}

bool Rng::bernoulli(double p) { return uniform01() < p; }

double Rng::exponential(double rate) {
  CAFT_CHECK_MSG(rate > 0.0, "exponential(rate) requires rate > 0");
  // -log1p(-U) with U in [0,1) is finite and positive for all draws.
  return -std::log1p(-uniform01()) / rate;
}

double Rng::weibull(double shape, double scale) {
  CAFT_CHECK_MSG(shape > 0.0 && scale > 0.0,
                 "weibull(shape, scale) requires positive parameters");
  return scale * std::pow(-std::log1p(-uniform01()), 1.0 / shape);
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  std::vector<std::size_t> pool;
  sample_without_replacement(n, k, pool);
  pool.resize(k);
  return pool;
}

void Rng::sample_without_replacement(std::size_t n, std::size_t k,
                                     std::vector<std::size_t>& pool) {
  CAFT_CHECK_MSG(k <= n, "cannot sample more items than the population holds");
  pool.resize(n);
  for (std::size_t i = 0; i < n; ++i) pool[i] = i;
  // Partial Fisher–Yates: the first k positions become the sample.
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j =
        static_cast<std::size_t>(uniform_int(i, n - 1));
    using std::swap;
    swap(pool[i], pool[j]);
  }
}

std::uint64_t Rng::split_seed() { return (*this)() ^ 0xA5A5A5A5A5A5A5A5ULL; }

}  // namespace caft
