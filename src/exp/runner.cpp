#include "exp/runner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "api/api.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "metrics/metrics.hpp"
#include "sim/crash_sim.hpp"
#include "sim/replay_engine.hpp"

namespace caft {

namespace {

/// Accumulates one double with mean finalization.
class Mean {
 public:
  void add(double value) {
    sum_ += value;
    ++count_;
  }
  [[nodiscard]] double value() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

 private:
  double sum_ = 0.0;
  std::size_t count_ = 0;
};

constexpr double kSkip = std::numeric_limits<double>::quiet_NaN();

/// One algorithm's metrics in one repetition. NaN = missing (a crash
/// re-execution that lost results — counted, not averaged).
struct AlgoRep {
  double latency0 = 0.0, latency_ub = 0.0, latency_crash = kSkip;
  double overhead0 = 0.0, overhead_crash = kSkip;
  double messages = 0.0, messages_per_edge = kSkip;
};

/// All metrics of one repetition (one random graph), algorithms indexed as
/// in config.algorithms.
struct RepMetrics {
  double ff_caft = 0.0, ff_ftbar = 0.0;
  std::vector<AlgoRep> algos;
  bool crash_failure = false;
};

/// Streaming per-algorithm means, same indexing as config.algorithms.
struct AlgoMeans {
  Mean latency0, latency_ub, latency_crash;
  Mean overhead0, overhead_crash;
  Mean messages, messages_per_edge;
};

void fold(Mean& mean, double value) {
  if (!std::isnan(value)) mean.add(value);
}

/// Every scheduler an experiment uses, resolved from the registry once up
/// front (an unknown config name fails before any work starts, and the hot
/// per-repetition loop does no registry lookups).
struct ResolvedSchedulers {
  std::shared_ptr<const ftsched::Scheduler> heft;   ///< CAFT* baseline
  std::shared_ptr<const ftsched::Scheduler> ftbar;  ///< ε=0 baseline
  std::vector<std::shared_ptr<const ftsched::Scheduler>> algos;
};

/// Runs one repetition end to end. Pure function of (config, granularity,
/// rng seed material) — schedulers are stateless — so repetitions can run
/// on any thread.
RepMetrics run_repetition(const ExperimentConfig& config,
                          const ResolvedSchedulers& schedulers,
                          double granularity, Rng rng) {
  TaskGraph graph = random_dag(config.dag, rng);
  CostSynthesisParams cost_params = config.costs;
  cost_params.granularity = granularity;
  const ftsched::Instance instance(
      std::move(graph), Platform(config.proc_count), cost_params, rng,
      ftsched::RunOptions{config.eps, CommModelKind::kOnePort});

  // Scheduling is validated by the algorithm test suites; the runner skips
  // the per-repetition validator pass (it would dominate small sweeps).
  ftsched::ScheduleRequest request;
  request.validate = false;

  // Fault-free baselines (CAFT* ≡ HEFT for the overhead formula; FTBAR at
  // ε = 0 for panel (a)).
  const ftsched::ScheduleResult ff_caft =
      schedulers.heft->schedule(instance, request);
  const double caft_star = ff_caft.makespan;
  ftsched::ScheduleRequest ff_request = request;
  ff_request.eps = 0;
  const ftsched::ScheduleResult ff_ftbar =
      schedulers.ftbar->schedule(instance, ff_request);

  // Fault-tolerant schedules, one per configured algorithm.
  std::vector<ftsched::ScheduleResult> results;
  results.reserve(schedulers.algos.size());
  for (const auto& scheduler : schedulers.algos)
    results.push_back(scheduler->schedule(instance, request));

  // Crash re-execution: one uniformly drawn crash set per repetition,
  // shared across all algorithms (paired comparison). Each schedule is
  // replayed once, so its engine is template only: no fault-free recording,
  // a dead-set closure and one replay from the pristine state.
  const auto indices =
      rng.sample_without_replacement(config.proc_count, config.crashes);
  std::vector<ProcId> failed(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i)
    failed[i] = ProcId(static_cast<ProcId::value_type>(indices[i]));
  const CrashScenario scenario =
      CrashScenario::at_zero(config.proc_count, failed);

  const auto norm = [&](double latency) {
    return normalized_latency(latency, instance.graph(), instance.costs());
  };

  ReplayEngineOptions one_shot;
  one_shot.max_snapshots = 0;

  RepMetrics rep;
  rep.ff_caft = norm(caft_star);
  rep.ff_ftbar = norm(ff_ftbar.makespan);
  rep.algos.resize(results.size());
  const double edges = static_cast<double>(instance.graph().edge_count());
  for (std::size_t a = 0; a < results.size(); ++a) {
    const ftsched::ScheduleResult& result = results[a];
    const CrashResult crash =
        ReplayEngine(result.schedule, instance.costs(), one_shot)
            .replay(scenario);
    AlgoRep& algo = rep.algos[a];
    algo.latency0 = norm(result.makespan);
    algo.latency_ub = norm(result.upper_bound);
    algo.overhead0 = overhead_percent(result.makespan, caft_star);
    algo.messages = static_cast<double>(result.messages);
    if (edges > 0) algo.messages_per_edge = algo.messages / edges;
    if (crash.success) {
      algo.latency_crash = norm(crash.latency);
      algo.overhead_crash = overhead_percent(crash.latency, caft_star);
    } else {
      rep.crash_failure = true;
    }
  }
  return rep;
}

}  // namespace

const AlgoAverages* PointAverages::algo(const std::string& name) const {
  for (const auto& [key, averages] : algos)
    if (key == name) return &averages;
  return nullptr;
}

std::vector<PointAverages> run_experiment(const ExperimentConfig& config) {
  CAFT_CHECK_MSG(config.crashes <= config.eps,
                 "crash count above eps would break the guarantee");
  CAFT_CHECK_MSG(!config.algorithms.empty(),
                 "experiment config names no algorithms");
  // Resolve every algorithm (baselines included) up front — an unknown name
  // fails here with the registry's "unknown algo ...; known: ..." message,
  // not mid-sweep — and the repetition loop does no registry lookups.
  const ftsched::SchedulerRegistry& registry =
      ftsched::SchedulerRegistry::global();
  ResolvedSchedulers schedulers;
  schedulers.heft = registry.make("heft");
  schedulers.ftbar = registry.make("ftbar");
  schedulers.algos.reserve(config.algorithms.size());
  for (const std::string& name : config.algorithms)
    schedulers.algos.push_back(registry.make(name));

  std::vector<PointAverages> points;
  points.reserve(config.granularities.size());
  Rng master(config.seed);
  const std::size_t threads =
      std::min(default_thread_count(), config.graphs_per_point);

  for (const double granularity : config.granularities) {
    // Deterministic per-repetition streams: split sequentially up front so
    // the thread schedule cannot influence the draws.
    std::vector<Rng> streams;
    streams.reserve(config.graphs_per_point);
    for (std::size_t rep = 0; rep < config.graphs_per_point; ++rep)
      streams.push_back(master.split());

    std::vector<RepMetrics> reps(config.graphs_per_point);
    const std::size_t stride = std::max<std::size_t>(1, threads);
    run_on_threads(threads, [&](std::size_t first) {
      for (std::size_t rep = first; rep < reps.size(); rep += stride)
        reps[rep] =
            run_repetition(config, schedulers, granularity, streams[rep]);
    });

    // Fold in repetition order: bit-for-bit deterministic regardless of the
    // thread interleaving above.
    Mean ff_caft, ff_ftbar;
    std::vector<AlgoMeans> means(config.algorithms.size());
    std::size_t crash_failures = 0;
    for (const RepMetrics& rep : reps) {
      if (rep.crash_failure) ++crash_failures;
      fold(ff_caft, rep.ff_caft);
      fold(ff_ftbar, rep.ff_ftbar);
      for (std::size_t a = 0; a < means.size(); ++a) {
        const AlgoRep& algo = rep.algos[a];
        fold(means[a].latency0, algo.latency0);
        fold(means[a].latency_ub, algo.latency_ub);
        fold(means[a].latency_crash, algo.latency_crash);
        fold(means[a].overhead0, algo.overhead0);
        fold(means[a].overhead_crash, algo.overhead_crash);
        fold(means[a].messages, algo.messages);
        fold(means[a].messages_per_edge, algo.messages_per_edge);
      }
    }

    PointAverages point;
    point.granularity = granularity;
    point.ff_caft = ff_caft.value();
    point.ff_ftbar = ff_ftbar.value();
    point.algos.reserve(config.algorithms.size());
    for (std::size_t a = 0; a < means.size(); ++a) {
      AlgoAverages averages;
      averages.latency0 = means[a].latency0.value();
      averages.latency_ub = means[a].latency_ub.value();
      averages.latency_crash = means[a].latency_crash.value();
      averages.overhead0 = means[a].overhead0.value();
      averages.overhead_crash = means[a].overhead_crash.value();
      averages.messages = means[a].messages.value();
      averages.messages_per_edge = means[a].messages_per_edge.value();
      point.algos.emplace_back(config.algorithms[a], averages);
    }
    point.crash_failures = crash_failures;
    points.push_back(point);
  }
  return points;
}

}  // namespace caft
