// Tests for CAFT-B, the batched variant of Section 7's future work
// (algo/caft_batch).
#include "algo/caft_batch.hpp"

#include <gtest/gtest.h>

#include <set>

#include "helpers.hpp"
#include "sched/validator.hpp"

namespace caft {
namespace {

using test::Scenario;
using test::random_setup;
using test::uniform_setup;

CaftBatchOptions options_for(std::size_t eps, std::size_t batch) {
  CaftBatchOptions options;
  options.caft.base = SchedulerOptions{eps, CommModelKind::kOnePort};
  options.batch_size = batch;
  return options;
}

TEST(CaftBatch, CompleteAndDistinctProcs) {
  Scenario s = random_setup(1, 10, 1.0);
  const Schedule sched =
      caft_batch_schedule(s.graph, *s.platform, *s.costs, options_for(2, 5));
  EXPECT_TRUE(sched.complete());
  for (const TaskId t : s.graph.all_tasks()) {
    std::set<ProcId> procs;
    for (const ReplicaAssignment& a : sched.primaries(t)) procs.insert(a.proc);
    EXPECT_EQ(procs.size(), 3u);
  }
}

TEST(CaftBatch, BatchSizeOneBehavesLikeCaft) {
  // batch_size = 1 processes one task at a time with the same placement
  // machinery; the schedules must be identical to plain CAFT.
  Scenario s = random_setup(2, 10, 1.0);
  CaftOptions plain;
  plain.base = SchedulerOptions{2, CommModelKind::kOnePort};
  const Schedule a = caft_schedule(s.graph, *s.platform, *s.costs, plain);
  const Schedule b =
      caft_batch_schedule(s.graph, *s.platform, *s.costs, options_for(2, 1));
  EXPECT_DOUBLE_EQ(a.zero_crash_latency(), b.zero_crash_latency());
  EXPECT_EQ(a.message_count(), b.message_count());
  for (const TaskId t : s.graph.all_tasks())
    for (ReplicaIndex r = 0; r < 3; ++r)
      EXPECT_EQ(a.replica(t, r).proc, b.replica(t, r).proc);
}

TEST(CaftBatch, CommitsTheChannelItsPeekFound) {
  // A round peeks every open task of the window once and commits the
  // winner's peeked channel without searching it again. At batch size 1 a
  // round is one peek of one task, so on Figure 3's shape (m = 20, ε = 5)
  // CAFT-B reproduces CAFT's schedule with exactly CAFT's trial placements;
  // a second search per commit would double them.
  const ExperimentConfig config = figure3();
  const Scenario s = test::figure_setup(config, 1.0);
  CaftOptions plain;
  plain.base = SchedulerOptions{config.eps, CommModelKind::kOnePort};
  CaftRunStats caft_stats;
  CaftRunStats batch_stats;
  const Schedule a =
      caft_schedule(s.graph, *s.platform, *s.costs, plain, &caft_stats);
  const Schedule b = caft_batch_schedule(s.graph, *s.platform, *s.costs,
                                         options_for(config.eps, 1),
                                         &batch_stats);
  ASSERT_EQ(test::saved(s, a), test::saved(s, b));
  EXPECT_GT(caft_stats.evaluations, 0u);
  EXPECT_EQ(batch_stats.evaluations, caft_stats.evaluations);
}

TEST(CaftBatch, ValidAcrossBatchSizes) {
  Scenario s = random_setup(3, 10, 1.0);
  for (const std::size_t batch : {2u, 4u, 10u}) {
    const Schedule sched = caft_batch_schedule(s.graph, *s.platform, *s.costs,
                                               options_for(1, batch));
    const ValidationResult result = validate_schedule(sched, *s.costs);
    EXPECT_TRUE(result.ok()) << "batch " << batch << ": " << result.summary();
  }
}

TEST(CaftBatch, StatsAccountAllCommits) {
  Scenario s = random_setup(4, 10, 1.0);
  CaftRunStats stats;
  const Schedule sched = caft_batch_schedule(s.graph, *s.platform, *s.costs,
                                             options_for(1, 6), &stats);
  EXPECT_EQ(stats.one_to_one_commits + stats.fallback_commits,
            s.graph.task_count() * 2);
  EXPECT_TRUE(sched.complete());
}

TEST(CaftBatch, SingleTask) {
  Scenario s = uniform_setup(chain(1), 3, 10.0, 1.0);
  const Schedule sched =
      caft_batch_schedule(s.graph, *s.platform, *s.costs, options_for(1, 10));
  EXPECT_TRUE(sched.complete());
  EXPECT_DOUBLE_EQ(sched.zero_crash_latency(), 10.0);
}

TEST(CaftBatch, RejectsZeroBatch) {
  Scenario s = uniform_setup(chain(2), 3, 10.0, 1.0);
  EXPECT_THROW(
      caft_batch_schedule(s.graph, *s.platform, *s.costs, options_for(1, 0)),
      CheckError);
}

TEST(CaftBatch, DeterministicAcrossRuns) {
  Scenario s = random_setup(5, 10, 1.0);
  const Schedule a =
      caft_batch_schedule(s.graph, *s.platform, *s.costs, options_for(2, 4));
  const Schedule b =
      caft_batch_schedule(s.graph, *s.platform, *s.costs, options_for(2, 4));
  EXPECT_DOUBLE_EQ(a.zero_crash_latency(), b.zero_crash_latency());
  EXPECT_EQ(a.message_count(), b.message_count());
}

/// Validity sweep over seeds and batch sizes at ε = 2.
class CaftBatchValidity
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {};

TEST_P(CaftBatchValidity, SchedulesValidate) {
  const auto [seed, batch] = GetParam();
  Scenario s = random_setup(seed, 10, 1.0);
  const Schedule sched = caft_batch_schedule(s.graph, *s.platform, *s.costs,
                                             options_for(2, batch));
  const ValidationResult result = validate_schedule(sched, *s.costs);
  EXPECT_TRUE(result.ok()) << result.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CaftBatchValidity,
    ::testing::Combine(::testing::Values(6u, 7u, 8u),
                       ::testing::Values(1u, 3u, 10u)));

}  // namespace
}  // namespace caft
