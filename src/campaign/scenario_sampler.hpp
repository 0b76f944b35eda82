/// \file scenario_sampler.hpp
/// Pluggable stochastic generators of CrashScenario draws — the first layer
/// of the Monte-Carlo fault-injection campaign (campaign/campaign.hpp).
///
/// The paper evaluates schedules under exactly one uniformly drawn crash set
/// of k processors dead from t = 0 per repetition ("With c Crash",
/// Section 6); UniformKSampler reproduces that model. The remaining samplers
/// open the distributional questions the paper leaves aside: exponential and
/// Weibull per-processor lifetimes (reliability-constrained scheduling à la
/// Tekawade & Banerjee), crash-at-θ windows exercising the simulator's
/// mid-execution extension, and correlated group failures (racks sharing a
/// power feed fail together).
///
/// Determinism contract: `sample_into` draws only from the Rng it is handed
/// and keeps no mutable state, so the campaign executor can pre-split one
/// stream per replay and draw on any worker thread while staying
/// bit-for-bit reproducible (the same contract run_experiment documents).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/crash_sim.hpp"

namespace caft {

/// Interface of one crash-scenario distribution over a fixed platform size.
class ScenarioSampler {
 public:
  virtual ~ScenarioSampler() = default;

  /// Human-readable distribution name for reports ("uniform-k(2)", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Processors every produced scenario covers; must match the platform of
  /// the schedule the campaign replays.
  [[nodiscard]] virtual std::size_t proc_count() const = 0;

  /// Draws one scenario's crash times into `times` (one entry per
  /// processor, times.size() == proc_count(); +inf = never fails). Must be
  /// a pure function of the Rng stream (no mutable sampler state) — see the
  /// determinism contract above — and allocates nothing once the calling
  /// thread has drawn before: it is the campaign's per-draw hot path.
  virtual void sample_into(Rng& rng, std::span<double> times) const = 0;

  /// Draws one scenario: sample_into on a fresh vector.
  [[nodiscard]] CrashScenario sample(Rng& rng) const;

  /// Always empty: every fault-free commit is a cut, so no cut is placed.
  /// The stub stays only because perfbench still feeds it to
  /// `snapshot_times`, which the engine no longer reads; ROADMAP.md item 1
  /// deletes both.
  [[nodiscard]] std::vector<double> first_crash_quantiles(
      std::size_t /*count*/, double /*horizon*/) const {
    return {};
  }
};

/// The paper's model: exactly k distinct processors, uniformly chosen, dead
/// from t = 0. With k <= ε every draw must be survived (Proposition 5.2).
class UniformKSampler final : public ScenarioSampler {
 public:
  UniformKSampler(std::size_t proc_count, std::size_t failures);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t proc_count() const override { return proc_count_; }
  void sample_into(Rng& rng, std::span<double> times) const override;

  /// The same draw as a dead-processor mask: bit p is set iff sample_into
  /// would write 0 at p. It makes exactly sample_into's Rng calls, so the
  /// stream ends where sample_into leaves it. Needs proc_count() <= 64.
  [[nodiscard]] std::uint64_t sample_dead_mask(Rng& rng) const;

 private:
  std::size_t proc_count_;
  std::size_t failures_;
};

/// Independent exponential lifetime per processor: crash time ~ Exp(rate).
/// Crashes beyond `horizon` are censored to "never fails" (+inf); the
/// default horizon of +inf keeps every draw finite.
class ExponentialLifetimeSampler final : public ScenarioSampler {
 public:
  ExponentialLifetimeSampler(std::size_t proc_count, double rate,
                             double horizon =
                                 std::numeric_limits<double>::infinity());

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t proc_count() const override { return proc_count_; }
  void sample_into(Rng& rng, std::span<double> times) const override;

 private:
  std::size_t proc_count_;
  double rate_;
  double horizon_;
};

/// Independent Weibull(shape, scale) lifetime per processor; shape < 1
/// models infant mortality, shape > 1 wear-out. Same horizon censoring as
/// the exponential sampler.
class WeibullLifetimeSampler final : public ScenarioSampler {
 public:
  WeibullLifetimeSampler(std::size_t proc_count, double shape, double scale,
                         double horizon =
                             std::numeric_limits<double>::infinity());

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t proc_count() const override { return proc_count_; }
  void sample_into(Rng& rng, std::span<double> times) const override;

 private:
  std::size_t proc_count_;
  double shape_;
  double scale_;
  double horizon_;
};

/// k distinct processors each crash at an independent θ drawn uniformly from
/// [theta_lo, theta_hi] — exercises the simulator's crash-at-θ extension
/// (work in flight at θ is lost, completed work survives).
class CrashWindowSampler final : public ScenarioSampler {
 public:
  CrashWindowSampler(std::size_t proc_count, std::size_t failures,
                     double theta_lo, double theta_hi);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t proc_count() const override { return proc_count_; }
  void sample_into(Rng& rng, std::span<double> times) const override;

 private:
  std::size_t proc_count_;
  std::size_t failures_;
  double theta_lo_;
  double theta_hi_;
};

/// Correlated group failures: processors are partitioned into contiguous
/// groups of `group_size` (the last group may be smaller); each group
/// independently fails with probability `fail_prob`, and when it does every
/// member crashes at the same θ ~ U[theta_lo, theta_hi]. Models racks or
/// power domains — the failure mode replication across a group cannot mask.
class CorrelatedGroupSampler final : public ScenarioSampler {
 public:
  CorrelatedGroupSampler(std::size_t proc_count, std::size_t group_size,
                         double fail_prob, double theta_lo = 0.0,
                         double theta_hi = 0.0);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t proc_count() const override { return proc_count_; }
  void sample_into(Rng& rng, std::span<double> times) const override;

  [[nodiscard]] std::size_t group_count() const;

 private:
  std::size_t proc_count_;
  std::size_t group_size_;
  double fail_prob_;
  double theta_lo_;
  double theta_hi_;
};

}  // namespace caft
