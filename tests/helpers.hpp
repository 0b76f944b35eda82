/// \file helpers.hpp
/// Shared fixtures for the tests: (graph, platform, costs) bundles with
/// stable addresses (CostModel keeps a pointer to its Platform, so both
/// live behind unique_ptr), convenience runners, the campaign oracle, and
/// a scratch directory for tests that write files.
#pragma once

#include <gtest/gtest.h>

#include <stdlib.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/scenario_sampler.hpp"
#include "comm/one_port.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "dag/generators.hpp"
#include "exp/config.hpp"
#include "io/instance_io.hpp"
#include "platform/cost_synthesis.hpp"
#include "platform/platform.hpp"
#include "sched/schedule.hpp"
#include "sim/crash_sim.hpp"

namespace caft::test {

/// One scheduling scenario. Movable: platform/costs have stable addresses.
/// (Named Scenario, not Setup: gtest reserves Setup inside TEST bodies.)
struct Scenario {
  TaskGraph graph;
  std::unique_ptr<Platform> platform;
  std::unique_ptr<CostModel> costs;
};

/// Homogeneous scenario: every task costs `exec` everywhere, every link has
/// unit delay `delay` (hand-computable schedules).
inline Scenario uniform_setup(TaskGraph graph, std::size_t procs, double exec,
                           double delay) {
  Scenario s;
  s.graph = std::move(graph);
  s.platform = std::make_unique<Platform>(procs);
  s.costs = std::make_unique<CostModel>(
      uniform_costs(s.graph, *s.platform, exec, delay));
  return s;
}

/// Paper-protocol random scenario at the given granularity.
inline Scenario random_setup(std::uint64_t seed, std::size_t procs,
                          double granularity,
                          RandomDagParams dag_params = RandomDagParams{}) {
  Rng rng(seed);
  Scenario s;
  s.graph = random_dag(dag_params, rng);
  s.platform = std::make_unique<Platform>(procs);
  CostSynthesisParams params;
  params.granularity = granularity;
  s.costs = std::make_unique<CostModel>(
      synthesize_costs(s.graph, *s.platform, params, rng));
  return s;
}

/// Paper-protocol random scenario on an arbitrary interconnect.
inline Scenario topology_setup(std::uint64_t seed, Topology topology,
                               double granularity,
                               RandomDagParams dag_params = RandomDagParams{}) {
  Rng rng(seed);
  Scenario s;
  s.graph = random_dag(dag_params, rng);
  s.platform = std::make_unique<Platform>(std::move(topology));
  CostSynthesisParams params;
  params.granularity = granularity;
  s.costs = std::make_unique<CostModel>(
      synthesize_costs(s.graph, *s.platform, params, rng));
  return s;
}

/// Random scenario over an arbitrary graph family.
inline Scenario graph_setup(TaskGraph graph, std::uint64_t seed,
                         std::size_t procs, double granularity) {
  Rng rng(seed);
  Scenario s;
  s.graph = std::move(graph);
  s.platform = std::make_unique<Platform>(procs);
  CostSynthesisParams params;
  params.granularity = granularity;
  s.costs = std::make_unique<CostModel>(
      synthesize_costs(s.graph, *s.platform, params, rng));
  return s;
}

/// One instance of a figure's experiment at `granularity`: the first graph
/// and costs drawn from the figure's seed.
inline Scenario figure_setup(const ExperimentConfig& config,
                             double granularity) {
  Rng rng(config.seed);
  Scenario s;
  s.graph = random_dag(config.dag, rng);
  s.platform = std::make_unique<Platform>(config.proc_count);
  CostSynthesisParams params = config.costs;
  params.granularity = granularity;
  s.costs = std::make_unique<CostModel>(
      synthesize_costs(s.graph, *s.platform, params, rng));
  return s;
}

/// The saved form of a schedule (round-trip-exact times): equal strings
/// mean bit-identical schedules.
inline std::string saved(const Scenario& s, const Schedule& schedule) {
  std::ostringstream os;
  save_instance(os, s.graph, *s.platform, *s.costs, &schedule);
  return os.str();
}

/// A schedule on more than 64 processors. The schedulers cap platforms at
/// 64 processors (support masks), so it is hand-posted through the
/// one-port engine: a 10-task chain, two replicas per task, every
/// replica-to-replica communication committed, spread over `procs`
/// processors. Not movable: the schedule and costs point at the members
/// before them.
struct WideChain {
  TaskGraph graph = chain(10, 5.0);
  Platform platform;
  CostModel costs;
  Schedule schedule;

  explicit WideChain(std::size_t procs)
      : platform(procs),
        costs(uniform_costs(graph, platform, 10.0, 1.0)),
        schedule(graph, platform, 1, CommModelKind::kOnePort) {
    OnePortEngine one_port(platform, costs);
    const auto proc_of = [&](std::size_t t, ReplicaIndex r) {
      return ProcId((t * 7 + r * 3) % procs);
    };
    const std::vector<TaskId> tasks = graph.all_tasks();
    std::vector<std::vector<TaskTimes>> times(tasks.size(),
                                              std::vector<TaskTimes>(2));
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      for (ReplicaIndex r = 0; r < 2; ++r) {
        double ready = 0.0;
        if (t > 0) {
          for (ReplicaIndex q = 0; q < 2; ++q) {
            CommAssignment ca;
            ca.edge = static_cast<EdgeIndex>(t - 1);
            ca.from = {tasks[t - 1], q};
            ca.to = {tasks[t], r};
            ca.src_proc = proc_of(t - 1, q);
            ca.dst_proc = proc_of(t, r);
            ca.volume = 5.0;
            std::vector<LinkOccupancy> hops;
            ca.times = one_port.post_comm(ca.src_proc, ca.dst_proc, ca.volume,
                                          times[t - 1][q].finish, &hops);
            ready = std::max(ready, ca.times.arrival);
            schedule.add_comm(ca, hops);
          }
        }
        times[t][r] = one_port.post_exec(proc_of(t, r), ready, 10.0);
        schedule.set_replica(
            tasks[t], r,
            {proc_of(t, r), times[t][r].start, times[t][r].finish});
      }
    }
    CAFT_CHECK(schedule.complete());
  }
  WideChain(const WideChain&) = delete;
  WideChain& operator=(const WideChain&) = delete;
};

/// run_campaign's contract computed the slow, obvious way: one
/// master.split() per replay, every draw replayed from t = 0 by
/// simulate_crashes and folded in replay order. With a positive
/// theta_bucket_width a draw with finite positive crash times is replayed
/// as its representative — each such time snapped to its bucket midpoint —
/// unless a bucket index reaches 2^32 − 1, the quantization contract of
/// sim/replay_engine.hpp. Threads and target_ci_width are ignored.
inline CampaignSummary oracle_campaign(const Schedule& schedule,
                                       const CostModel& costs,
                                       const ScenarioSampler& sampler,
                                       const CampaignOptions& options) {
  CampaignAccumulator accumulator(schedule.eps(), options.quantiles);
  accumulator.set_sampler_name(sampler.name());
  const double width = options.theta_bucket_width;
  Rng master(options.seed);
  for (std::size_t i = 0; i < options.replays; ++i) {
    Rng stream = master.split();
    const CrashScenario draw = sampler.sample(stream);
    CrashScenario replayed = draw;
    if (width > 0.0) {
      std::vector<double> times(draw.proc_count());
      bool representable = true;
      for (std::size_t p = 0; p < times.size(); ++p) {
        times[p] = draw.crash_time(ProcId(static_cast<ProcId::value_type>(p)));
        if (!std::isfinite(times[p]) || times[p] <= 0.0) continue;
        const double bucket = std::floor(times[p] / width);
        representable = representable && bucket < 4294967295.0;
        times[p] = (bucket + 0.5) * width;
      }
      if (representable) replayed = CrashScenario(std::move(times));
    }
    accumulator.add(draw.failed_count(),
                    simulate_crashes(schedule, costs, replayed));
  }
  return accumulator.summary();
}

/// Bit-for-bit equality of everything a campaign summary reports (NaN
/// statistics — e.g. quantiles with no successful replay — compare equal
/// to NaN).
inline void expect_summaries_identical(const CampaignSummary& a,
                                       const CampaignSummary& b,
                                       const std::string& context = "") {
  SCOPED_TRACE(context);
  const auto same = [](double x, double y) {
    if (std::isnan(x) && std::isnan(y)) return;
    EXPECT_EQ(x, y);
  };
  EXPECT_EQ(a.sampler, b.sampler);
  EXPECT_EQ(a.replays, b.replays);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.success_ci.low, b.success_ci.low);
  EXPECT_EQ(a.success_ci.high, b.success_ci.high);
  EXPECT_EQ(a.replays_within_eps, b.replays_within_eps);
  EXPECT_EQ(a.successes_within_eps, b.successes_within_eps);
  EXPECT_EQ(a.max_failed, b.max_failed);
  EXPECT_EQ(a.order_relaxations, b.order_relaxations);
  EXPECT_EQ(a.order_deadlocks, b.order_deadlocks);
  EXPECT_EQ(a.latency.count(), b.latency.count());
  same(a.latency.mean(), b.latency.mean());
  same(a.latency.min(), b.latency.min());
  same(a.latency.max(), b.latency.max());
  same(a.latency.stddev(), b.latency.stddev());
  EXPECT_EQ(a.delivered_messages.count(), b.delivered_messages.count());
  same(a.delivered_messages.mean(), b.delivered_messages.mean());
  ASSERT_EQ(a.latency_quantiles.size(), b.latency_quantiles.size());
  for (std::size_t i = 0; i < a.latency_quantiles.size(); ++i) {
    EXPECT_EQ(a.latency_quantiles[i].q, b.latency_quantiles[i].q);
    same(a.latency_quantiles[i].value, b.latency_quantiles[i].value);
  }
}

/// RAII scratch directory (mkdtemp under the system temp dir), for tests
/// that write wrapper scripts or marker files. Throws CheckError when the
/// directory cannot be created; removal at destruction is best-effort.
class ScratchDir {
 public:
  /// `prefix` seeds the directory name: <tmp>/<prefix>-XXXXXX.
  explicit ScratchDir(const std::string& prefix) {
    std::string name_template =
        (std::filesystem::temp_directory_path() / (prefix + "-XXXXXX"))
            .string();
    CAFT_CHECK_MSG(::mkdtemp(name_template.data()) != nullptr,
                   "could not create a scratch directory under " +
                       std::filesystem::temp_directory_path().string());
    path_ = name_template;
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);  // best effort
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  /// Absolute path of `name` inside the directory.
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

}  // namespace caft::test
