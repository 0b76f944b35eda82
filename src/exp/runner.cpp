#include "exp/runner.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>

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

/// One algorithm job's raw outcome in one repetition. The fold normalises
/// it against the repetition's instance and HEFT baseline.
struct AlgoRun {
  double makespan = 0.0, upper_bound = 0.0, messages = 0.0;
  /// Re-executed latency under the repetition's crash set; meaningless
  /// when the re-execution lost results (!crash_success).
  double crash_latency = 0.0;
  bool crash_success = false;
};

/// Streaming per-algorithm means, same indexing as config.algorithms.
struct AlgoMeans {
  Mean latency0, latency_ub, latency_crash;
  Mean overhead0, overhead_crash;
  Mean messages, messages_per_edge;
};

/// Every scheduler an experiment uses, resolved from the registry once up
/// front (an unknown config name fails before any work starts, and the hot
/// per-job loop does no registry lookups).
struct ResolvedSchedulers {
  std::shared_ptr<const ftsched::Scheduler> heft;   ///< CAFT* baseline
  std::shared_ptr<const ftsched::Scheduler> ftbar;  ///< ε=0 baseline
  std::vector<std::shared_ptr<const ftsched::Scheduler>> algos;
};

/// One repetition's inputs, shared read-only by all of its jobs: the random
/// instance and the one crash set every algorithm is re-executed under
/// (paired comparison).
struct RepInput {
  std::optional<ftsched::Instance> instance;
  std::optional<CrashScenario> scenario;
};

/// Draws one repetition's inputs from its own stream, in a fixed order:
/// the DAG, then the costs, then the crash set.
RepInput draw_inputs(const ExperimentConfig& config, double granularity,
                     Rng rng) {
  RepInput input;
  TaskGraph graph = random_dag(config.dag, rng);
  CostSynthesisParams cost_params = config.costs;
  cost_params.granularity = granularity;
  input.instance.emplace(
      std::move(graph), Platform(config.proc_count), cost_params, rng,
      ftsched::RunOptions{config.eps, CommModelKind::kOnePort});
  const auto indices =
      rng.sample_without_replacement(config.proc_count, config.crashes);
  std::vector<ProcId> failed(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i)
    failed[i] = ProcId(static_cast<ProcId::value_type>(indices[i]));
  input.scenario = CrashScenario::at_zero(config.proc_count, failed);
  return input;
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
  // not mid-sweep — and the job loop does no registry lookups.
  const ftsched::SchedulerRegistry& registry =
      ftsched::SchedulerRegistry::global();
  ResolvedSchedulers schedulers;
  schedulers.heft = registry.make("heft");
  schedulers.ftbar = registry.make("ftbar");
  schedulers.algos.reserve(config.algorithms.size());
  for (const std::string& name : config.algorithms)
    schedulers.algos.push_back(registry.make(name));

  // Scheduling is validated by the algorithm test suites; the runner skips
  // the per-schedule validator pass (it would dominate small sweeps).
  ftsched::ScheduleRequest request;
  request.validate = false;
  ftsched::ScheduleRequest ff_request = request;
  ff_request.eps = 0;
  // Each schedule is replayed once, so its engine is template only: no
  // fault-free recording, a dead-set closure and one replay from the
  // pristine state.
  ReplayEngineOptions one_shot;
  one_shot.max_snapshots = 0;

  // Jobs of one point: every repetition's algorithms in config order, then
  // every repetition's ε = 0 FTBAR baseline, then its HEFT baseline (CAFT*
  // for the overhead formula): the larger jobs are handed out first.
  const std::size_t reps = config.graphs_per_point;
  const std::size_t algos = schedulers.algos.size();
  const std::size_t algo_jobs = reps * algos;
  const std::size_t jobs = algo_jobs + 2 * reps;
  WorkerGroup group(std::min(default_thread_count(), jobs));
  std::vector<ReplayEngine::Scratch> scratches(group.size());

  std::vector<PointAverages> points;
  points.reserve(config.granularities.size());
  Rng master(config.seed);
  for (const double granularity : config.granularities) {
    // Deterministic per-repetition streams: split sequentially up front so
    // the thread schedule cannot influence the draws.
    std::vector<Rng> streams;
    streams.reserve(reps);
    for (std::size_t rep = 0; rep < reps; ++rep)
      streams.push_back(master.split());

    std::vector<RepInput> inputs(reps);
    std::atomic<std::size_t> next_input{0};
    group.run([&](std::size_t) {
      for (std::size_t rep; (rep = next_input.fetch_add(1)) < reps;)
        inputs[rep] = draw_inputs(config, granularity, streams[rep]);
    });

    // Each job writes its own slot; its schedule dies with the job.
    std::vector<AlgoRun> runs(algo_jobs);
    std::vector<double> baselines(2 * reps);  // ε = 0 FTBAR's, then HEFT's
    std::atomic<std::size_t> next_job{0};
    group.run([&](std::size_t slot) {
      for (std::size_t job; (job = next_job.fetch_add(1)) < jobs;) {
        if (job >= algo_jobs) {
          const std::size_t b = job - algo_jobs;
          const ftsched::Instance& instance = *inputs[b % reps].instance;
          baselines[b] =
              b < reps
                  ? schedulers.ftbar->schedule(instance, ff_request).makespan
                  : schedulers.heft->schedule(instance, request).makespan;
          continue;
        }
        const RepInput& input = inputs[job / algos];
        const ftsched::ScheduleResult result =
            schedulers.algos[job % algos]->schedule(*input.instance, request);
        const ReplayEngine engine(result.schedule, input.instance->costs(),
                                  one_shot);
        const CrashResult& crash =
            engine.replay(*input.scenario, scratches[slot]);
        runs[job] = {result.makespan, result.upper_bound,
                     static_cast<double>(result.messages), crash.latency,
                     crash.success};
      }
    });

    // Fold in repetition order: bit-for-bit deterministic regardless of the
    // thread interleaving above. A re-execution that lost results is
    // counted, not averaged.
    Mean ff_caft, ff_ftbar;
    std::vector<AlgoMeans> means(algos);
    std::size_t crash_failures = 0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const ftsched::Instance& instance = *inputs[rep].instance;
      const auto norm = [&](double latency) {
        return normalized_latency(latency, instance.graph(), instance.costs());
      };
      const double caft_star = baselines[reps + rep];
      const double edges = static_cast<double>(instance.graph().edge_count());
      ff_caft.add(norm(caft_star));
      ff_ftbar.add(norm(baselines[rep]));
      bool crash_failure = false;
      for (std::size_t a = 0; a < algos; ++a) {
        const AlgoRun& run = runs[rep * algos + a];
        AlgoMeans& mean = means[a];
        mean.latency0.add(norm(run.makespan));
        mean.latency_ub.add(norm(run.upper_bound));
        mean.overhead0.add(overhead_percent(run.makespan, caft_star));
        mean.messages.add(run.messages);
        if (edges > 0) mean.messages_per_edge.add(run.messages / edges);
        if (run.crash_success) {
          mean.latency_crash.add(norm(run.crash_latency));
          mean.overhead_crash.add(
              overhead_percent(run.crash_latency, caft_star));
        } else {
          crash_failure = true;
        }
      }
      if (crash_failure) ++crash_failures;
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
