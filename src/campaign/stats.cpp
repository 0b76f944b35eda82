#include "campaign/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.hpp"

namespace caft {

WilsonInterval wilson_interval(std::size_t successes, std::size_t trials,
                               double z) {
  CAFT_CHECK_MSG(successes <= trials, "successes cannot exceed trials");
  CAFT_CHECK_MSG(z > 0.0, "critical value must be positive");
  if (trials == 0) return WilsonInterval{0.0, 1.0};
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double margin =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  return WilsonInterval{std::max(0.0, center - margin),
                        std::min(1.0, center + margin)};
}

P2Quantile::P2Quantile(double quantile) : q_(quantile) {
  CAFT_CHECK_MSG(0.0 < quantile && quantile < 1.0,
                 "quantile must be strictly inside (0, 1)");
  for (int i = 0; i < 5; ++i) {
    height_[i] = 0.0;
    position_[i] = static_cast<double>(i + 1);
  }
  desired_[0] = 1.0;
  desired_[1] = 1.0 + 2.0 * q_;
  desired_[2] = 1.0 + 4.0 * q_;
  desired_[3] = 3.0 + 2.0 * q_;
  desired_[4] = 5.0;
  increment_[0] = 0.0;
  increment_[1] = q_ / 2.0;
  increment_[2] = q_;
  increment_[3] = (1.0 + q_) / 2.0;
  increment_[4] = 1.0;
}

void P2Quantile::add(double x) {
  if (count_ < 5) {
    height_[count_++] = x;
    if (count_ == 5) std::sort(height_, height_ + 5);
    return;
  }

  // Locate the cell containing x; clamp the extreme markers to the sample
  // range.
  int cell;
  if (x < height_[0]) {
    height_[0] = x;
    cell = 0;
  } else if (x >= height_[4]) {
    height_[4] = std::max(height_[4], x);
    cell = 3;
  } else {
    cell = 0;
    while (cell < 3 && x >= height_[cell + 1]) ++cell;
  }

  for (int i = cell + 1; i < 5; ++i) position_[i] += 1.0;
  for (int i = 0; i < 5; ++i) desired_[i] += increment_[i];
  ++count_;

  // Adjust the three interior markers toward their desired positions with
  // the piecewise-parabolic (P²) update, falling back to linear when the
  // parabola would leave the bracketing heights.
  for (int i = 1; i <= 3; ++i) {
    const double d = desired_[i] - position_[i];
    const double dn = position_[i + 1] - position_[i];  // gap to the right
    const double dp = position_[i] - position_[i - 1];  // gap to the left
    const bool right = d >= 1.0 && dn > 1.0;
    const bool left = d <= -1.0 && dp > 1.0;
    if (!right && !left) continue;
    const double sign = right ? 1.0 : -1.0;
    const double parabolic =
        height_[i] +
        sign / (dn + dp) *
            ((dp + sign) * (height_[i + 1] - height_[i]) / dn +
             (dn - sign) * (height_[i] - height_[i - 1]) / dp);
    // The parabolic step degenerates when marker heights collide (long runs
    // of identical or near-duplicate observations): the height differences
    // cancel to ~0 and rounding (or extreme magnitudes) can push the result
    // out of the bracket or to a non-finite value. Clamp to the linear
    // fallback in every such case — its denominator is a marker-position
    // gap, an integer > 1 by the guards above, so it can never divide by ~0.
    if (std::isfinite(parabolic) && height_[i - 1] < parabolic &&
        parabolic < height_[i + 1]) {
      height_[i] = parabolic;
    } else {
      const int neighbor = right ? i + 1 : i - 1;
      const double linear = height_[i] +
                            sign * (height_[neighbor] - height_[i]) /
                                (position_[neighbor] - position_[i]);
      // Identical-height runs make the linear step 0/huge-gap as well;
      // keep the marker inside its bracket no matter what arrives.
      height_[i] = std::clamp(linear, height_[i - 1], height_[i + 1]);
    }
    position_[i] += sign;
  }
}

double P2Quantile::value() const {
  if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
  if (count_ >= 5) return height_[2];
  // Fewer than five samples: the buffer holds them unsorted; report the
  // exact empirical quantile (nearest-rank on a sorted copy).
  double sorted[5];
  std::copy(height_, height_ + count_, sorted);
  std::sort(sorted, sorted + count_);
  const double rank = q_ * static_cast<double>(count_ - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, count_ - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

void StreamingMoments::add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double StreamingMoments::stddev() const {
  if (count_ < 2) return 0.0;
  return std::sqrt(m2_ / static_cast<double>(count_ - 1));
}

CampaignAccumulator::CampaignAccumulator(std::size_t eps,
                                         const std::vector<double>& quantiles)
    : eps_(eps), quantile_targets_(quantiles) {
  quantile_estimators_.reserve(quantiles.size());
  for (const double q : quantiles) quantile_estimators_.emplace_back(q);
}

void CampaignAccumulator::add(std::size_t failed_count,
                              const CrashResult& result) {
  add(ReplayRecord{result.success, result.order_deadlock, result.latency,
                   result.delivered_messages, result.order_relaxations,
                   failed_count});
}

void CampaignAccumulator::add(const ReplayRecord& record) {
  ++running_.replays;
  running_.max_failed = std::max(running_.max_failed, record.failed_count);
  if (record.failed_count <= eps_) {
    ++running_.replays_within_eps;
    if (record.success) ++running_.successes_within_eps;
  }
  if (record.success) {
    ++running_.successes;
    running_.latency.add(record.latency);
    for (P2Quantile& est : quantile_estimators_) est.add(record.latency);
  }
  running_.delivered_messages.add(
      static_cast<double>(record.delivered_messages));
  running_.order_relaxations += record.order_relaxations;
  if (record.order_deadlock) ++running_.order_deadlocks;
}

CampaignSummary CampaignAccumulator::summary() const {
  CampaignSummary out = running_;
  out.sampler = sampler_;
  out.success_ci = wilson_interval(out.successes, out.replays);
  out.latency_quantiles.clear();
  out.latency_quantiles.reserve(quantile_targets_.size());
  for (std::size_t i = 0; i < quantile_targets_.size(); ++i)
    out.latency_quantiles.push_back(
        QuantileEstimate{quantile_targets_[i], quantile_estimators_[i].value()});
  return out;
}

Table campaign_table(
    const std::string& title,
    const std::vector<std::pair<std::string, CampaignSummary>>& rows) {
  std::vector<std::string> header = {
      "series",   "replays",   "successes", "success_rate", "ci_low",
      "ci_high",  "lat_mean",  "lat_min",   "lat_max",      "lat_stddev"};
  // Quantile columns come from the first row; all rows of one table are
  // expected to share the same quantile set.
  const auto* first = rows.empty() ? nullptr : &rows.front().second;
  if (first != nullptr) {
    for (const QuantileEstimate& q : first->latency_quantiles) {
      // Default stream precision keeps sub-percent quantiles distinct:
      // 0.5 -> lat_p50, 0.999 -> lat_p99.9.
      std::ostringstream os;
      os << "lat_p" << q.q * 100.0;
      header.push_back(os.str());
    }
  }
  header.insert(header.end(),
                {"msgs_mean", "relaxations", "deadlocks", "within_eps"});

  Table table(title, header);
  for (const auto& [label, s] : rows) {
    std::vector<Cell> row = {
        label,
        static_cast<double>(s.replays),
        static_cast<double>(s.successes),
        s.success_rate(),
        s.success_ci.low,
        s.success_ci.high,
        s.latency.mean(),
        s.latency.count() == 0 ? 0.0 : s.latency.min(),
        s.latency.count() == 0 ? 0.0 : s.latency.max(),
        s.latency.stddev()};
    for (const QuantileEstimate& q : s.latency_quantiles)
      row.emplace_back(q.value);
    row.emplace_back(s.delivered_messages.mean());
    row.emplace_back(static_cast<double>(s.order_relaxations));
    row.emplace_back(static_cast<double>(s.order_deadlocks));
    {
      std::ostringstream os;
      os << s.successes_within_eps << "/" << s.replays_within_eps;
      row.emplace_back(os.str());
    }
    table.add_row(std::move(row));
  }
  return table;
}

}  // namespace caft
