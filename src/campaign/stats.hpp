/// \file stats.hpp
/// Streaming aggregation for fault-injection campaigns: success probability
/// with a Wilson score interval, latency moments and P²-estimated quantiles
/// (Jain & Chlamtac 1985 — O(1) memory, no sample storage), plus the
/// delivered-message / order-relaxation counters the crash replay reports.
/// A campaign folds one ReplayRecord at a time, in replay order, so the
/// summary is bit-for-bit independent of how replays were scheduled across
/// threads.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "sim/crash_sim.hpp"

namespace caft {

/// Wilson score confidence interval for a binomial proportion — unlike the
/// normal approximation it stays inside [0, 1] and behaves at p near 0 or 1,
/// exactly the regime of campaigns where (almost) every replay succeeds.
struct WilsonInterval {
  double low = 0.0;
  double high = 1.0;
};

/// Interval for `successes` out of `trials` at critical value `z`
/// (1.96 ~ 95%). Degenerates to [0, 1] when trials == 0.
[[nodiscard]] WilsonInterval wilson_interval(std::size_t successes,
                                             std::size_t trials,
                                             double z = 1.96);

/// P² single-quantile estimator: five markers updated per observation, no
/// sample storage. Exact until five observations have arrived (it sorts the
/// initial buffer), then a piecewise-parabolic approximation.
class P2Quantile {
 public:
  /// `quantile` in (0, 1), e.g. 0.5 for the median.
  explicit P2Quantile(double quantile);

  void add(double x);
  [[nodiscard]] std::size_t count() const { return count_; }
  /// Current estimate; NaN before the first observation.
  [[nodiscard]] double value() const;

 private:
  double q_;
  std::size_t count_ = 0;
  double height_[5];       ///< marker heights
  double position_[5];     ///< actual marker positions (1-based)
  double desired_[5];      ///< desired marker positions
  double increment_[5];    ///< desired-position increments per observation
};

/// Streaming count/mean/min/max/variance (Welford) accumulator.
class StreamingMoments {
 public:
  void add(double x);
  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ == 0 ? 0.0 : mean_; }
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  /// Sample standard deviation (n-1 denominator); 0 for fewer than 2 points.
  [[nodiscard]] double stddev() const;

  /// Raw sum of squared deviations (the Welford M2 term). Together with
  /// count/mean/min/max it is the accumulator's *complete* state, which is
  /// what lets a summary cross a wire bit-exactly: ship the five fields as
  /// hexfloat, restore() on the far side, and every derived statistic
  /// (stddev included) reproduces bit-for-bit.
  [[nodiscard]] double m2() const { return m2_; }
  /// Rebuilds an accumulator from state previously read off m2()/count()/
  /// mean()/min()/max() — the read half of the wire round-trip. The raw
  /// mean is restored even for count == 0 (mean() masks it to 0 itself).
  [[nodiscard]] static StreamingMoments restore(std::size_t count,
                                                double mean, double m2,
                                                double min, double max) {
    StreamingMoments moments;
    moments.count_ = count;
    moments.mean_ = mean;
    moments.m2_ = m2;
    moments.min_ = min;
    moments.max_ = max;
    return moments;
  }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// One estimated latency quantile.
struct QuantileEstimate {
  double q = 0.0;      ///< requested quantile in (0, 1)
  double value = 0.0;  ///< P² estimate over successful replays
};

/// Everything a campaign reports.
struct CampaignSummary {
  std::string sampler;  ///< distribution name the scenarios came from
  std::size_t replays = 0;
  std::size_t successes = 0;
  [[nodiscard]] double success_rate() const {
    return replays == 0 ? 0.0
                        : static_cast<double>(successes) /
                              static_cast<double>(replays);
  }
  WilsonInterval success_ci;

  /// Replays whose sampled crash count was <= ε — Proposition 5.2 says each
  /// of these must succeed, so successes_within_eps == replays_within_eps
  /// for any valid fault-tolerant schedule.
  std::size_t replays_within_eps = 0;
  std::size_t successes_within_eps = 0;
  /// Largest number of crashed processors seen in one scenario.
  std::size_t max_failed = 0;

  /// Latency over *successful* replays only (failures have no latency).
  StreamingMoments latency;
  std::vector<QuantileEstimate> latency_quantiles;

  /// Inter-processor messages actually delivered, over all replays.
  StreamingMoments delivered_messages;
  /// Total out-of-committed-order commits across all replays.
  std::size_t order_relaxations = 0;
  /// Replays where even the relaxed order deadlocked.
  std::size_t order_deadlocks = 0;
};

/// Compact outcome of one replay: exactly what the accumulator folds,
/// nothing else (the full CrashResult with its per-replica matrices never
/// outlives its worker). Records are a pure function of (schedule, costs,
/// scenario, θ-quantization config) — never of threads, block size or
/// cache state — which is what lets campaign blocks be computed in other
/// processes and folded back bit-identically.
struct ReplayRecord {
  bool success = false;
  bool order_deadlock = false;
  double latency = 0.0;
  std::size_t delivered_messages = 0;
  std::size_t order_relaxations = 0;
  std::size_t failed_count = 0;  ///< processors the scenario crashed
};

/// Folds replay records in replay order into a CampaignSummary.
class CampaignAccumulator {
 public:
  /// `eps` is the schedule's supported failure count (for the within-ε
  /// split); `quantiles` the latencies to estimate, each in (0, 1).
  CampaignAccumulator(std::size_t eps, const std::vector<double>& quantiles);

  /// The fold step.
  void add(const ReplayRecord& record);
  /// Adapter for callers holding a full CrashResult (the oracle helpers).
  void add(std::size_t failed_count, const CrashResult& result);

  [[nodiscard]] CampaignSummary summary() const;
  /// Replays and successes folded so far — the Wilson inputs, without the
  /// cost of a whole summary().
  [[nodiscard]] std::size_t replays() const { return running_.replays; }
  [[nodiscard]] std::size_t successes() const { return running_.successes; }
  void set_sampler_name(std::string name) { sampler_ = std::move(name); }

 private:
  std::size_t eps_;
  std::string sampler_;
  CampaignSummary running_;
  std::vector<double> quantile_targets_;
  std::vector<P2Quantile> quantile_estimators_;
};

/// One row per (label, summary): success rate with CI, latency moments and
/// quantiles, message/relaxation counters — print, CSV and JSON all come
/// from the common Table.
[[nodiscard]] Table campaign_table(
    const std::string& title,
    const std::vector<std::pair<std::string, CampaignSummary>>& rows);

}  // namespace caft
