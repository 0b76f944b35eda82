/// \file runner.hpp
/// Executes one ExperimentConfig: for every granularity point it generates
/// `graphs_per_point` random (graph, costs) instances, runs the fault-free
/// baselines plus every algorithm in config.algorithms (resolved through the
/// SchedulerRegistry) under the one-port model, re-executes each
/// fault-tolerant schedule under a uniformly drawn crash set, and averages
/// the paper's metrics.
///
/// Results are keyed by registry algorithm name, not by per-algorithm
/// scalar fields: adding a sixth algorithm to a figure is one string in
/// ExperimentConfig::algorithms — neither this struct nor exp/report needs
/// touching.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "exp/config.hpp"

namespace caft {

/// Averages of one algorithm at one granularity point.
struct AlgoAverages {
  /// Panel (a): normalized 0-crash latency and upper bound.
  double latency0 = 0.0;
  double latency_ub = 0.0;
  /// Panel (b): normalized re-executed latency under `crashes` failures.
  double latency_crash = 0.0;
  /// Panel (c): overhead % versus the fault-free CAFT latency.
  double overhead0 = 0.0;
  double overhead_crash = 0.0;
  /// Message accounting (Section 6's communication analysis).
  double messages = 0.0;
  double messages_per_edge = 0.0;
};

/// Averages for one granularity point — one x position of the figures.
struct PointAverages {
  double granularity = 0.0;

  /// Fault-free baselines: HEFT (the paper's CAFT*) and FTBAR at ε=0.
  double ff_caft = 0.0;
  double ff_ftbar = 0.0;

  /// Per-algorithm averages, keyed by registry name, in
  /// ExperimentConfig::algorithms order.
  std::vector<std::pair<std::string, AlgoAverages>> algos;

  /// Averages of `name`; null when the config did not run it.
  [[nodiscard]] const AlgoAverages* algo(const std::string& name) const;

  /// Crash re-executions in which some task delivered no result (should be
  /// 0: every algorithm in the default set tolerates up to ε failures and
  /// crashes ≤ ε).
  std::size_t crash_failures = 0;
};

/// Runs the experiment; one PointAverages per granularity, in sweep order.
/// Repetitions run in parallel across hardware threads (override with the
/// CAFT_THREADS environment variable); results are bit-for-bit independent
/// of the thread count because every repetition owns a pre-split random
/// stream and the fold happens in repetition order.
[[nodiscard]] std::vector<PointAverages> run_experiment(
    const ExperimentConfig& config);

}  // namespace caft
