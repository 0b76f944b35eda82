#include "campaign/scenario_sampler.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <sstream>

#include "common/check.hpp"

namespace caft {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Applies horizon censoring: a lifetime beyond the mission horizon is
/// indistinguishable from "never fails" for the replay.
double censor(double lifetime, double horizon) {
  return lifetime > horizon ? kInf : lifetime;
}

/// Checks that `times` has one entry per processor of the sampler.
void check_size(std::span<double> times, std::size_t proc_count) {
  CAFT_CHECK_MSG(times.size() == proc_count,
                 "crash-time buffer size does not match the sampler");
}

/// The calling thread's partial Fisher–Yates pool. Samplers are shared
/// const across a campaign's workers, so the pool belongs to the worker
/// thread, never to the sampler; it stops allocating once it has grown.
std::vector<std::size_t>& index_pool() {
  thread_local std::vector<std::size_t> pool;
  return pool;
}

}  // namespace

CrashScenario ScenarioSampler::sample(Rng& rng) const {
  std::vector<double> times(proc_count());
  sample_into(rng, times);
  return CrashScenario(std::move(times));
}

UniformKSampler::UniformKSampler(std::size_t proc_count, std::size_t failures)
    : proc_count_(proc_count), failures_(failures) {
  CAFT_CHECK_MSG(proc_count > 0, "sampler needs at least one processor");
  CAFT_CHECK_MSG(failures <= proc_count,
                 "cannot fail more processors than the platform has");
}

std::string UniformKSampler::name() const {
  std::ostringstream os;
  os << "uniform-k(" << failures_ << ")";
  return os.str();
}

void UniformKSampler::sample_into(Rng& rng, std::span<double> times) const {
  check_size(times, proc_count_);
  std::vector<std::size_t>& pool = index_pool();
  rng.sample_without_replacement(proc_count_, failures_, pool);
  std::fill(times.begin(), times.end(), kInf);
  for (std::size_t i = 0; i < failures_; ++i) times[pool[i]] = 0.0;
}

std::uint64_t UniformKSampler::sample_dead_mask(Rng& rng) const {
  CAFT_CHECK_MSG(proc_count_ <= 64, "a dead mask holds at most 64 processors");
  // Rng::sample_without_replacement's partial Fisher–Yates, on a local pool.
  std::array<std::uint8_t, 64> pool;
  std::iota(pool.begin(),
            pool.begin() + static_cast<std::ptrdiff_t>(proc_count_),
            std::uint8_t{0});
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < failures_; ++i) {
    const auto j =
        static_cast<std::size_t>(rng.uniform_int(i, proc_count_ - 1));
    std::swap(pool[i], pool[j]);
    mask |= std::uint64_t{1} << pool[i];
  }
  return mask;
}

ExponentialLifetimeSampler::ExponentialLifetimeSampler(std::size_t proc_count,
                                                       double rate,
                                                       double horizon)
    : proc_count_(proc_count), rate_(rate), horizon_(horizon) {
  CAFT_CHECK_MSG(proc_count > 0, "sampler needs at least one processor");
  CAFT_CHECK_MSG(rate > 0.0, "exponential rate must be positive");
  CAFT_CHECK_MSG(horizon > 0.0, "horizon must be positive");
}

std::string ExponentialLifetimeSampler::name() const {
  std::ostringstream os;
  os << "exp-lifetime(rate=" << rate_ << ")";
  return os.str();
}

void ExponentialLifetimeSampler::sample_into(Rng& rng,
                                             std::span<double> times) const {
  check_size(times, proc_count_);
  for (double& t : times) t = censor(rng.exponential(rate_), horizon_);
}

WeibullLifetimeSampler::WeibullLifetimeSampler(std::size_t proc_count,
                                               double shape, double scale,
                                               double horizon)
    : proc_count_(proc_count), shape_(shape), scale_(scale),
      horizon_(horizon) {
  CAFT_CHECK_MSG(proc_count > 0, "sampler needs at least one processor");
  CAFT_CHECK_MSG(shape > 0.0 && scale > 0.0,
                 "weibull shape and scale must be positive");
  CAFT_CHECK_MSG(horizon > 0.0, "horizon must be positive");
}

std::string WeibullLifetimeSampler::name() const {
  std::ostringstream os;
  os << "weibull-lifetime(shape=" << shape_ << ", scale=" << scale_ << ")";
  return os.str();
}

void WeibullLifetimeSampler::sample_into(Rng& rng,
                                         std::span<double> times) const {
  check_size(times, proc_count_);
  for (double& t : times) t = censor(rng.weibull(shape_, scale_), horizon_);
}

CrashWindowSampler::CrashWindowSampler(std::size_t proc_count,
                                       std::size_t failures, double theta_lo,
                                       double theta_hi)
    : proc_count_(proc_count), failures_(failures), theta_lo_(theta_lo),
      theta_hi_(theta_hi) {
  CAFT_CHECK_MSG(proc_count > 0, "sampler needs at least one processor");
  CAFT_CHECK_MSG(failures <= proc_count,
                 "cannot fail more processors than the platform has");
  CAFT_CHECK_MSG(0.0 <= theta_lo && theta_lo <= theta_hi,
                 "crash window requires 0 <= theta_lo <= theta_hi");
}

std::string CrashWindowSampler::name() const {
  std::ostringstream os;
  os << "crash-window(" << failures_ << ", [" << theta_lo_ << ", "
     << theta_hi_ << "])";
  return os.str();
}

void CrashWindowSampler::sample_into(Rng& rng,
                                     std::span<double> times) const {
  check_size(times, proc_count_);
  std::vector<std::size_t>& pool = index_pool();
  rng.sample_without_replacement(proc_count_, failures_, pool);
  std::fill(times.begin(), times.end(), kInf);
  for (std::size_t i = 0; i < failures_; ++i)
    times[pool[i]] = rng.uniform(theta_lo_, theta_hi_);
}

CorrelatedGroupSampler::CorrelatedGroupSampler(std::size_t proc_count,
                                               std::size_t group_size,
                                               double fail_prob,
                                               double theta_lo,
                                               double theta_hi)
    : proc_count_(proc_count), group_size_(group_size), fail_prob_(fail_prob),
      theta_lo_(theta_lo), theta_hi_(theta_hi) {
  CAFT_CHECK_MSG(proc_count > 0, "sampler needs at least one processor");
  CAFT_CHECK_MSG(group_size >= 1, "group size must be at least 1");
  CAFT_CHECK_MSG(0.0 <= fail_prob && fail_prob <= 1.0,
                 "group failure probability must be in [0, 1]");
  CAFT_CHECK_MSG(0.0 <= theta_lo && theta_lo <= theta_hi,
                 "crash window requires 0 <= theta_lo <= theta_hi");
}

std::size_t CorrelatedGroupSampler::group_count() const {
  return (proc_count_ + group_size_ - 1) / group_size_;
}

std::string CorrelatedGroupSampler::name() const {
  std::ostringstream os;
  os << "correlated-groups(size=" << group_size_ << ", p=" << fail_prob_
     << ")";
  return os.str();
}

void CorrelatedGroupSampler::sample_into(Rng& rng,
                                         std::span<double> times) const {
  check_size(times, proc_count_);
  std::fill(times.begin(), times.end(), kInf);
  for (std::size_t g = 0; g < group_count(); ++g) {
    if (!rng.bernoulli(fail_prob_)) continue;
    const double theta = theta_lo_ == theta_hi_
                             ? theta_lo_
                             : rng.uniform(theta_lo_, theta_hi_);
    const std::size_t first = g * group_size_;
    const std::size_t last = std::min(first + group_size_, proc_count_);
    std::fill(times.begin() + static_cast<std::ptrdiff_t>(first),
              times.begin() + static_cast<std::ptrdiff_t>(last), theta);
  }
}

}  // namespace caft
