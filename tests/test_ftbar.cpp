// Tests for FTBAR (algo/ftbar): schedule-pressure selection, replication
// structure, and the Minimize-Start-Time duplication pass.
#include "algo/ftbar.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "algo/ftbar_internal.hpp"
#include "exp/config.hpp"
#include "helpers.hpp"
#include "obs/obs.hpp"
#include "sched/validator.hpp"

namespace caft {
namespace {

using test::Scenario;
using test::random_setup;
using test::saved;
using test::uniform_setup;

FtbarOptions options_for(std::size_t eps,
                         CommModelKind model = CommModelKind::kOnePort,
                         bool mst = true) {
  FtbarOptions options;
  options.base = SchedulerOptions{eps, model};
  options.minimize_start_time = mst;
  return options;
}

TEST(Ftbar, EveryTaskGetsEpsPlusOnePrimaries) {
  Scenario s = random_setup(1, 10, 1.0);
  const Schedule sched =
      ftbar_schedule(s.graph, *s.platform, *s.costs, options_for(2));
  for (const TaskId t : s.graph.all_tasks())
    EXPECT_EQ(sched.primaries_recorded(t), 3u);
}

TEST(Ftbar, PrimariesOnDistinctProcessors) {
  Scenario s = random_setup(2, 10, 1.0);
  const Schedule sched =
      ftbar_schedule(s.graph, *s.platform, *s.costs, options_for(3));
  for (const TaskId t : s.graph.all_tasks()) {
    std::set<ProcId> procs;
    for (const ReplicaAssignment& a : sched.primaries(t)) procs.insert(a.proc);
    EXPECT_EQ(procs.size(), 4u);
  }
}

TEST(Ftbar, SingleTaskGraph) {
  Scenario s = uniform_setup(chain(1), 3, 10.0, 1.0);
  const Schedule sched =
      ftbar_schedule(s.graph, *s.platform, *s.costs, options_for(1));
  EXPECT_TRUE(sched.complete());
  EXPECT_DOUBLE_EQ(sched.zero_crash_latency(), 10.0);
}

TEST(Ftbar, MstNeverWorseThanWithout) {
  // Duplication is only committed when it strictly reduces the start time,
  // so enabling it can only help (or leave the schedule unchanged) on the
  // zero-crash latency of each placement decision... The global greedy can
  // in principle diverge, so assert a softer invariant: both variants are
  // valid and finite, and MST produces at least as many replicas.
  Scenario s = random_setup(3, 10, 0.3);
  const Schedule with =
      ftbar_schedule(s.graph, *s.platform, *s.costs, options_for(1));
  const Schedule without = ftbar_schedule(
      s.graph, *s.platform, *s.costs,
      options_for(1, CommModelKind::kOnePort, /*mst=*/false));
  std::size_t with_replicas = 0, without_replicas = 0;
  for (const TaskId t : s.graph.all_tasks()) {
    with_replicas += with.total_replicas(t);
    without_replicas += without.total_replicas(t);
  }
  EXPECT_GE(with_replicas, without_replicas);
  EXPECT_TRUE(validate_schedule(with, *s.costs).ok());
  EXPECT_TRUE(validate_schedule(without, *s.costs).ok());
}

TEST(Ftbar, MstDuplicatesRemoteCriticalParent) {
  // join(2) with expensive edges: the two producers run in parallel on
  // different processors, so the consumer co-locates with one of them and
  // waits ~110 for the other's message — unless Minimize-Start-Time
  // duplicates that remote parent locally (cost 10), which is exactly what
  // the pass is for.
  Scenario s = uniform_setup(join(2, 100.0), 4, 10.0, 1.0);
  const Schedule sched =
      ftbar_schedule(s.graph, *s.platform, *s.costs, options_for(0));
  std::size_t duplicates = 0;
  for (const TaskId t : s.graph.all_tasks())
    duplicates += sched.duplicates(t).size();
  EXPECT_GT(duplicates, 0u);
  EXPECT_TRUE(validate_schedule(sched, *s.costs).ok());
  // With the duplicate, the sink starts right after the local copies.
  EXPECT_LT(sched.zero_crash_latency(), 50.0);
}

TEST(Ftbar, MessageCountAtMostQuadratic) {
  Scenario s = random_setup(4, 10, 1.0);
  const std::size_t eps = 2;
  const Schedule sched = ftbar_schedule(
      s.graph, *s.platform, *s.costs,
      options_for(eps, CommModelKind::kOnePort, /*mst=*/false));
  EXPECT_LE(sched.message_count(),
            s.graph.edge_count() * (eps + 1) * (eps + 1));
}

TEST(Ftbar, DeterministicAcrossRuns) {
  Scenario s = random_setup(5, 10, 1.0);
  const Schedule a =
      ftbar_schedule(s.graph, *s.platform, *s.costs, options_for(1));
  const Schedule b =
      ftbar_schedule(s.graph, *s.platform, *s.costs, options_for(1));
  EXPECT_DOUBLE_EQ(a.zero_crash_latency(), b.zero_crash_latency());
  EXPECT_EQ(a.message_count(), b.message_count());
}

TEST(Ftbar, RequiresEnoughProcessors) {
  Scenario s = uniform_setup(chain(2), 2, 1.0, 1.0);
  EXPECT_THROW(
      ftbar_schedule(s.graph, *s.platform, *s.costs, options_for(2)),
      CheckError);
}

/// Validity sweep over seeds, ε, models, and the MST switch.
class FtbarValidity
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, std::size_t, CommModelKind, bool>> {};

TEST_P(FtbarValidity, SchedulesValidate) {
  const auto [seed, eps, model, mst] = GetParam();
  Scenario s = random_setup(seed, 10, 1.0);
  const Schedule sched = ftbar_schedule(s.graph, *s.platform, *s.costs,
                                        options_for(eps, model, mst));
  const ValidationResult result = validate_schedule(sched, *s.costs);
  EXPECT_TRUE(result.ok()) << result.summary();
}

/// An 8-processor interconnect by name: the paper's clique, or a sparse
/// one whose multi-hop routes share links.
Topology topology_named(const std::string& name, std::uint64_t seed) {
  if (name == "ring") return Topology::ring(8);
  if (name == "star") return Topology::star(8);
  if (name == "mesh") return Topology::mesh(2, 4);
  if (name == "random") {
    Rng rng(seed);
    return Topology::random_connected(8, 3.0, rng);
  }
  return Topology::clique(8);
}

/// Every start time the cache reuses is evaluated again and checked by
/// ftbar_schedule_checked; the schedule must also equal the unchecked
/// driver's, and the cache must have reused something.
class FtbarReuse
    : public ::testing::TestWithParam<
          std::tuple<const char*, std::size_t, CommModelKind, bool>> {};

TEST_P(FtbarReuse, ReusedStartTimesMatchRecomputation) {
  const auto [topology, eps, model, mst] = GetParam();
  RandomDagParams dag;
  dag.min_tasks = 40;
  dag.max_tasks = 60;
  const std::uint64_t seed = 31 + eps;
  Scenario s = test::topology_setup(seed, topology_named(topology, seed), 0.5,
                                    dag);
  const FtbarOptions options = options_for(eps, model, mst);
  internal::FtbarReuseStats stats;
  const Schedule checked = internal::ftbar_schedule_checked(
      s.graph, *s.platform, *s.costs, options, &stats);
  const Schedule plain =
      ftbar_schedule(s.graph, *s.platform, *s.costs, options);
  EXPECT_EQ(saved(s, checked), saved(s, plain));
  EXPECT_TRUE(validate_schedule(checked, *s.costs).ok());
  EXPECT_GT(stats.reused, 0u);
  EXPECT_GE(stats.computed, s.graph.task_count() * s.platform->proc_count());
}

INSTANTIATE_TEST_SUITE_P(
    RandomTopologies, FtbarReuse,
    ::testing::Combine(::testing::Values("clique", "ring", "star", "mesh",
                                         "random"),
                       ::testing::Values(0u, 2u, 5u),
                       ::testing::Values(CommModelKind::kOnePort,
                                         CommModelKind::kMacroDataflow),
                       ::testing::Bool()));

/// Reuse share on one Figure 3 instance (m = 20, the sweep's middle
/// granularity): the share of (task, processor) start times taken from the
/// cache, at ε = 0 and at the figure's ε = 5.
double figure3_reuse_share(std::size_t eps) {
  const Scenario s = test::figure_setup(figure3(), 1.0);
  internal::FtbarReuseStats stats;
  (void)internal::ftbar_schedule_checked(s.graph, *s.platform, *s.costs,
                                         options_for(eps), &stats);
  return static_cast<double>(stats.reused) /
         static_cast<double>(stats.reused + stats.computed);
}

TEST(FtbarReuseShare, Figure3InstanceReusesMostStartTimes) {
  EXPECT_GE(figure3_reuse_share(0), 0.75);
  EXPECT_GE(figure3_reuse_share(5), 0.5);
}

TEST(FtbarReuseCounters, ExportedOnlyWhenEnabled) {
  Scenario s = random_setup(6, 10, 1.0);
  internal::FtbarReuseStats stats;
  (void)internal::ftbar_schedule_checked(s.graph, *s.platform, *s.costs,
                                         options_for(2), &stats);
  obs::Registry& registry = obs::Registry::global();
  const auto counter = [&](const char* name) {
    return registry.snapshot().counter_value(name);
  };
  const std::uint64_t reused = counter("ftbar.evaluations.reused");
  const std::uint64_t computed = counter("ftbar.evaluations.computed");

  (void)ftbar_schedule(s.graph, *s.platform, *s.costs, options_for(2));
  EXPECT_EQ(counter("ftbar.evaluations.reused"), reused);  // disabled

  registry.set_enabled(true);
  (void)ftbar_schedule(s.graph, *s.platform, *s.costs, options_for(2));
  registry.set_enabled(false);
  EXPECT_EQ(counter("ftbar.evaluations.reused") - reused, stats.reused);
  EXPECT_EQ(counter("ftbar.evaluations.computed") - computed, stats.computed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FtbarValidity,
    ::testing::Combine(::testing::Values(1u, 2u),
                       ::testing::Values(0u, 1u, 3u),
                       ::testing::Values(CommModelKind::kOnePort,
                                         CommModelKind::kMacroDataflow),
                       ::testing::Bool()));

}  // namespace
}  // namespace caft
