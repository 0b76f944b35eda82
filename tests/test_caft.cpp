// Tests for CAFT (algo/caft): the one-to-one mapping procedure, the message
// bounds of Proposition 5.1, locking, and the HEFT equivalence at ε = 0.
#include "algo/caft.hpp"

#include <gtest/gtest.h>

#include <set>

#include "algo/caft_internal.hpp"
#include "algo/ftsa.hpp"
#include "algo/heft.hpp"
#include "counting_allocator.hpp"
#include "helpers.hpp"
#include "sched/validator.hpp"

namespace caft {
namespace {

using test::Scenario;
using test::figure_setup;
using test::graph_setup;
using test::random_setup;
using test::saved;
using test::uniform_setup;

CaftOptions options_for(std::size_t eps,
                        CommModelKind model = CommModelKind::kOnePort,
                        bool one_to_one = true) {
  CaftOptions options;
  options.base = SchedulerOptions{eps, model};
  options.one_to_one = one_to_one;
  return options;
}

TEST(Caft, EveryTaskGetsEpsPlusOneReplicas) {
  Scenario s = random_setup(1, 10, 1.0);
  const Schedule sched =
      caft_schedule(s.graph, *s.platform, *s.costs, options_for(2));
  for (const TaskId t : s.graph.all_tasks()) {
    EXPECT_EQ(sched.primaries_recorded(t), 3u);
    EXPECT_EQ(sched.total_replicas(t), 3u);  // CAFT never duplicates
  }
}

TEST(Caft, ReplicasOnDistinctProcessors) {
  Scenario s = random_setup(2, 10, 1.0);
  const Schedule sched =
      caft_schedule(s.graph, *s.platform, *s.costs, options_for(3));
  for (const TaskId t : s.graph.all_tasks()) {
    std::set<ProcId> procs;
    for (const ReplicaAssignment& a : sched.primaries(t)) procs.insert(a.proc);
    EXPECT_EQ(procs.size(), 4u);
  }
}

TEST(CaftMapper, WarmPeekNextFinishAllocatesNothing) {
  // Map tasks until one with predecessors is next, commit one of its
  // replicas (a non-empty lock), then peek twice: the second peek runs on
  // the mapper's warm candidate slots and the Placer's warm scratch.
  Scenario s = random_setup(7, 10, 1.0);
  const CaftOptions options = options_for(2);
  internal::CaftMapper mapper(s.graph, *s.platform, *s.costs, options,
                              nullptr);
  TaskId t = mapper.tracker().pop_highest();
  while (s.graph.in_degree(t) == 0) {
    internal::TaskStep step = mapper.begin_task(t);
    while (!mapper.done(step)) mapper.advance(step);
    mapper.finish_task(step);
    t = mapper.tracker().pop_highest();
  }
  internal::TaskStep step = mapper.begin_task(t);
  mapper.advance(step);
  const double cold = mapper.peek_next_finish(step);
  const std::uint64_t before = ::test::t_allocations;
  const double warm = mapper.peek_next_finish(step);
  EXPECT_EQ(::test::t_allocations, before);
  EXPECT_EQ(warm, cold);
}

TEST(Caft, FaultFreeReducesToHeft) {
  // Section 6: "the fault-free version of CAFT reduces to an implementation
  // of HEFT".
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Scenario s = random_setup(seed, 10, 1.0);
    const Schedule caft =
        caft_schedule(s.graph, *s.platform, *s.costs, options_for(0));
    const Schedule heft =
        heft_schedule(s.graph, *s.platform, *s.costs, CommModelKind::kOnePort);
    EXPECT_DOUBLE_EQ(caft.zero_crash_latency(), heft.zero_crash_latency())
        << "seed " << seed;
  }
}

TEST(Caft, Proposition51ForkMessageBound) {
  // Prop. 5.1: on fork graphs CAFT sends at most e(ε+1) messages.
  for (const std::size_t eps : {1u, 2u, 3u}) {
    Scenario s = graph_setup(fork(8, 100.0), 10 + eps, 10, 1.0);
    const Schedule sched =
        caft_schedule(s.graph, *s.platform, *s.costs, options_for(eps));
    EXPECT_LE(sched.message_count(), s.graph.edge_count() * (eps + 1))
        << "eps " << eps;
  }
}

TEST(Caft, Proposition51OutForestMessageBound) {
  for (const std::size_t eps : {1u, 2u, 3u}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      Rng rng(seed);
      TaskGraph forest = random_out_forest(40, 2, rng);
      Scenario s = graph_setup(std::move(forest), seed * 100 + eps, 10, 1.0);
      const Schedule sched =
          caft_schedule(s.graph, *s.platform, *s.costs, options_for(eps));
      EXPECT_LE(sched.message_count(), s.graph.edge_count() * (eps + 1))
          << "eps " << eps << " seed " << seed;
    }
  }
}

TEST(Caft, Proposition51ChainMessageBound) {
  for (const std::size_t eps : {1u, 3u}) {
    Scenario s = graph_setup(chain(20, 100.0), 30 + eps, 10, 0.5);
    const Schedule sched =
        caft_schedule(s.graph, *s.platform, *s.costs, options_for(eps));
    EXPECT_LE(sched.message_count(), s.graph.edge_count() * (eps + 1));
  }
}

TEST(Caft, FarFewerMessagesThanFtsa) {
  // The headline claim: CAFT drastically reduces communications vs FTSA.
  Scenario s = random_setup(3, 10, 0.5);
  const std::size_t eps = 3;
  const Schedule caft =
      caft_schedule(s.graph, *s.platform, *s.costs, options_for(eps));
  const Schedule ftsa =
      ftsa_schedule(s.graph, *s.platform, *s.costs,
                    SchedulerOptions{eps, CommModelKind::kOnePort});
  EXPECT_LT(caft.message_count(), ftsa.message_count());
}

TEST(Caft, StatsAccountAllCommits) {
  Scenario s = random_setup(4, 10, 1.0);
  const std::size_t eps = 2;
  CaftRunStats stats;
  const Schedule sched =
      caft_schedule(s.graph, *s.platform, *s.costs, options_for(eps), &stats);
  EXPECT_EQ(stats.one_to_one_commits + stats.fallback_commits,
            s.graph.task_count() * (eps + 1));
  EXPECT_GT(stats.one_to_one_commits, 0u);
}

/// The finish floor never skips a winning channel: caft_schedule_checked
/// trial-places every skipped processor and throws if one finishes below
/// its floor or would have been chosen. Runs on each figure's shape (m, ε),
/// at a fine and a coarse granularity, under both communication models.
class CaftFloor
    : public ::testing::TestWithParam<
          std::tuple<ExperimentConfig (*)(), CommModelKind>> {};

TEST_P(CaftFloor, SkippedProcessorsCouldNotHaveWon) {
  const auto [figure, model] = GetParam();
  const ExperimentConfig config = figure();
  for (const double granularity :
       {config.granularities.front(), config.granularities.back()}) {
    const Scenario s = figure_setup(config, granularity);
    const CaftOptions options = options_for(config.eps, model);
    internal::CaftFloorStats stats;
    const Schedule checked = internal::caft_schedule_checked(
        s.graph, *s.platform, *s.costs, options, &stats);
    CaftRunStats run_stats;
    const Schedule plain =
        caft_schedule(s.graph, *s.platform, *s.costs, options, &run_stats);
    EXPECT_EQ(saved(s, checked), saved(s, plain));
    EXPECT_EQ(stats.evaluated, run_stats.evaluations);
    EXPECT_GT(stats.skipped, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Figures, CaftFloor,
    ::testing::Combine(::testing::Values(&figure1, &figure2, &figure3,
                                         &figure4, &figure5, &figure6),
                       ::testing::Values(CommModelKind::kOnePort,
                                         CommModelKind::kMacroDataflow)));

TEST(CaftFloorBound, Figure3ShapeRunsAThirdOfThePlacements) {
  const ExperimentConfig config = figure3();
  const Scenario s = figure_setup(config, 1.0);
  internal::CaftFloorStats stats;
  (void)internal::caft_schedule_checked(s.graph, *s.platform, *s.costs,
                                        options_for(config.eps), &stats);
  EXPECT_GE(stats.evaluated + stats.skipped, 3 * stats.evaluated)
      << stats.evaluated << " placements run, " << stats.skipped
      << " skipped";
}

TEST(CaftFloorBound, HoldsUnderEveryChannelRule) {
  // Without one-to-one the search has one pass; kDirect and the star's
  // two-hop routes change which channels build.
  for (const bool one_to_one : {true, false})
    for (const CaftSupportMode mode :
         {CaftSupportMode::kDirect, CaftSupportMode::kTransitive}) {
      const Scenario s = test::topology_setup(41, Topology::star(8), 0.6);
      CaftOptions options = options_for(5, CommModelKind::kOnePort, one_to_one);
      options.support_mode = mode;
      internal::CaftFloorStats stats;
      const Schedule checked = internal::caft_schedule_checked(
          s.graph, *s.platform, *s.costs, options, &stats);
      EXPECT_EQ(saved(s, checked),
                saved(s, caft_schedule(s.graph, *s.platform, *s.costs,
                                       options)));
      EXPECT_GT(stats.skipped, 0u);
    }
}

TEST(Caft, EveryReplicaFindsAnUnlockedHost) {
  // ε = m − 1 leaves no processor to spare, ε = m / 2 leaves room for wide
  // channels, and a 2-processor star routes every message through the
  // hub. The channel search CAFT_CHECKs that each replica still finds an
  // unlocked host, under every channel rule and both support modes.
  for (const std::size_t m : {2u, 4u, 8u})
    for (const std::size_t eps : {m / 2, m - 1})
      for (Topology (*topology)(std::size_t) :
           {&Topology::clique, &Topology::ring, &Topology::star})
        for (const bool one_to_one : {true, false})
          for (const CaftSupportMode mode :
               {CaftSupportMode::kDirect, CaftSupportMode::kTransitive})
            for (std::uint64_t seed = 1; seed <= 3; ++seed) {
              const Scenario s = test::topology_setup(seed, topology(m), 0.6);
              CaftOptions options =
                  options_for(eps, CommModelKind::kOnePort, one_to_one);
              options.support_mode = mode;
              const Schedule sched = internal::caft_schedule_checked(
                  s.graph, *s.platform, *s.costs, options);
              EXPECT_TRUE(validate_schedule(sched, *s.costs).ok())
                  << "m=" << m << " eps=" << eps << " seed=" << seed;
            }
}

TEST(CaftFloorBound, AFinishTieAtTheFloorIsStillVisited) {
  // a -> b, ε = 0, m = 2, unit delays. a runs on P0 (finish 1). b's floors
  // are 2 on P1 and 3 on P0, so P1 is visited first and finishes at 3 (its
  // input lands at 2). P0's floor equals that finish, and P0 reaches it
  // (its input is local): the tie goes to the lower id, so the pass must
  // not stop at a floor equal to the best finish.
  TaskGraph graph;
  const TaskId a = graph.add_task("a");
  const TaskId b = graph.add_task("b");
  graph.add_edge(a, b, 1.0);
  Scenario s = uniform_setup(std::move(graph), 2, 1.0, 1.0);
  s.costs->set_exec(a, ProcId(1), 10.0);
  s.costs->set_exec(b, ProcId(0), 2.0);
  s.costs->set_exec(b, ProcId(1), 1.0);
  internal::CaftFloorStats stats;
  const Schedule sched = internal::caft_schedule_checked(
      s.graph, *s.platform, *s.costs, options_for(0), &stats);
  EXPECT_EQ(sched.replica(b, 0).proc, ProcId(0));
  EXPECT_EQ(sched.replica(b, 0).finish, 3.0);
}

TEST(Caft, OneToOneDisabledStillValid) {
  Scenario s = random_setup(5, 10, 1.0);
  CaftRunStats stats;
  const Schedule sched = caft_schedule(
      s.graph, *s.platform, *s.costs,
      options_for(2, CommModelKind::kOnePort, /*one_to_one=*/false), &stats);
  EXPECT_EQ(stats.one_to_one_commits, 0u);
  EXPECT_TRUE(validate_schedule(sched, *s.costs).ok());
}

TEST(Caft, OneToOneReducesMessagesVsDisabled) {
  Scenario s = random_setup(6, 10, 0.5);
  const Schedule with =
      caft_schedule(s.graph, *s.platform, *s.costs, options_for(2));
  const Schedule without = caft_schedule(
      s.graph, *s.platform, *s.costs,
      options_for(2, CommModelKind::kOnePort, /*one_to_one=*/false));
  EXPECT_LE(with.message_count(), without.message_count());
}

TEST(Caft, UpperBoundStaysWithinTwiceZeroCrash) {
  // The paper reports CAFT's upper bound close to its 0-crash latency. In
  // this reproduction the relationship is looser (our contention-aware FTSA
  // places near-symmetric replicas, so *its* bound is the tight one), but
  // CAFT's straggling stays bounded: the last replica never doubles the
  // earliest-copy latency on the paper's configurations.
  for (std::uint64_t seed = 5; seed <= 9; ++seed) {
    Scenario s = random_setup(seed, 10, 0.5);
    const std::size_t eps = 2;
    const Schedule caft =
        caft_schedule(s.graph, *s.platform, *s.costs, options_for(eps));
    EXPECT_GE(caft.upper_bound_latency(), caft.zero_crash_latency());
    EXPECT_LE(caft.upper_bound_latency(), 2.0 * caft.zero_crash_latency())
        << "seed " << seed;
  }
}

TEST(Caft, SingleEntryTaskGraph) {
  Scenario s = uniform_setup(chain(1), 4, 10.0, 1.0);
  const Schedule sched =
      caft_schedule(s.graph, *s.platform, *s.costs, options_for(2));
  EXPECT_TRUE(sched.complete());
  EXPECT_DOUBLE_EQ(sched.zero_crash_latency(), 10.0);
  EXPECT_EQ(sched.message_count(), 0u);
}

TEST(Caft, ExactlyEpsPlusOneProcessors) {
  // m = ε+1: every processor hosts exactly one replica of every task.
  Scenario s = uniform_setup(chain(3, 10.0), 3, 10.0, 1.0);
  const Schedule sched =
      caft_schedule(s.graph, *s.platform, *s.costs, options_for(2));
  EXPECT_TRUE(sched.complete());
  for (const TaskId t : s.graph.all_tasks()) {
    std::set<ProcId> procs;
    for (const ReplicaAssignment& a : sched.primaries(t)) procs.insert(a.proc);
    EXPECT_EQ(procs.size(), 3u);
  }
  EXPECT_TRUE(validate_schedule(sched, *s.costs).ok());
}

TEST(Caft, DeterministicAcrossRuns) {
  Scenario s = random_setup(8, 10, 1.0);
  const Schedule a =
      caft_schedule(s.graph, *s.platform, *s.costs, options_for(2));
  const Schedule b =
      caft_schedule(s.graph, *s.platform, *s.costs, options_for(2));
  EXPECT_DOUBLE_EQ(a.zero_crash_latency(), b.zero_crash_latency());
  EXPECT_EQ(a.message_count(), b.message_count());
  for (const TaskId t : s.graph.all_tasks())
    for (ReplicaIndex r = 0; r < 3; ++r)
      EXPECT_EQ(a.replica(t, r).proc, b.replica(t, r).proc);
}

TEST(Caft, RequiresEnoughProcessors) {
  Scenario s = uniform_setup(chain(2), 2, 1.0, 1.0);
  EXPECT_THROW(
      caft_schedule(s.graph, *s.platform, *s.costs, options_for(2)),
      CheckError);
}

/// Validity sweep over seeds, ε, models, graph families.
class CaftValidity
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, std::size_t, CommModelKind>> {};

TEST_P(CaftValidity, SchedulesValidate) {
  const auto [seed, eps, model] = GetParam();
  Scenario s = random_setup(seed, 10, 1.0);
  const Schedule sched =
      caft_schedule(s.graph, *s.platform, *s.costs, options_for(eps, model));
  const ValidationResult result = validate_schedule(sched, *s.costs);
  EXPECT_TRUE(result.ok()) << result.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CaftValidity,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u),
                       ::testing::Values(0u, 1u, 3u),
                       ::testing::Values(CommModelKind::kOnePort,
                                         CommModelKind::kMacroDataflow)));

/// Validity across structured graph families at ε = 2.
class CaftFamilies : public ::testing::TestWithParam<int> {};

TEST_P(CaftFamilies, SchedulesValidate) {
  TaskGraph g;
  switch (GetParam()) {
    case 0: g = fork(10, 100.0); break;
    case 1: g = join(10, 100.0); break;
    case 2: g = fork_join(8, 100.0); break;
    case 3: g = gaussian_elimination(5, 100.0); break;
    case 4: g = cholesky(4, 100.0); break;
    case 5: g = fft(3, 100.0); break;
    default: g = stencil(4, 5, 100.0); break;
  }
  Scenario s =
      graph_setup(std::move(g), 50u + static_cast<std::uint64_t>(GetParam()),
                  8, 1.0);
  const Schedule sched =
      caft_schedule(s.graph, *s.platform, *s.costs, options_for(2));
  const ValidationResult result = validate_schedule(sched, *s.costs);
  EXPECT_TRUE(result.ok()) << result.summary();
}

INSTANTIATE_TEST_SUITE_P(Families, CaftFamilies,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace caft
