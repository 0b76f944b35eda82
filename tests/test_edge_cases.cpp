// Edge-case sweeps across the whole stack: degenerate platforms, zero-cost
// work, extreme replication, and hostile-but-legal inputs. Everything here
// must behave, not just not-crash: schedules validate and metrics stay
// finite.
#include <gtest/gtest.h>

#include <cmath>

#include "algo/caft.hpp"
#include "algo/caft_batch.hpp"
#include "algo/ftbar.hpp"
#include "algo/ftsa.hpp"
#include "algo/heft.hpp"
#include "helpers.hpp"
#include "metrics/metrics.hpp"
#include "sched/validator.hpp"
#include "sim/resilience.hpp"

namespace caft {
namespace {

using test::Scenario;
using test::graph_setup;
using test::uniform_setup;

TEST(EdgeCases, SingleProcessorSingleTask) {
  Scenario s = uniform_setup(chain(1), 1, 5.0, 1.0);
  const Schedule sched =
      heft_schedule(s.graph, *s.platform, *s.costs, CommModelKind::kOnePort);
  EXPECT_DOUBLE_EQ(sched.zero_crash_latency(), 5.0);
  EXPECT_TRUE(validate_schedule(sched, *s.costs).ok());
}

TEST(EdgeCases, ZeroExecutionTimes) {
  // Tasks that cost nothing anywhere: everything collapses to communication.
  Scenario s = uniform_setup(fork_join(4, 10.0), 4, 0.0, 1.0);
  const Schedule sched = caft_schedule(
      s.graph, *s.platform, *s.costs,
      [] {
        CaftOptions o;
        o.base = {1, CommModelKind::kOnePort};
        return o;
      }());
  EXPECT_TRUE(validate_schedule(sched, *s.costs).ok());
  EXPECT_GE(sched.zero_crash_latency(), 0.0);
  EXPECT_TRUE(std::isfinite(sched.zero_crash_latency()));
}

TEST(EdgeCases, ZeroLinkDelays) {
  // Free communication: the one-port engine still serializes *nothing*
  // time-wise (zero-duration transfers), and schedules stay valid.
  Scenario s = uniform_setup(fork_join(4, 10.0), 4, 5.0, 0.0);
  for (const std::size_t eps : {0u, 1u, 2u}) {
    CaftOptions options;
    options.base = {eps, CommModelKind::kOnePort};
    const Schedule sched =
        caft_schedule(s.graph, *s.platform, *s.costs, options);
    EXPECT_TRUE(validate_schedule(sched, *s.costs).ok()) << "eps " << eps;
  }
}

TEST(EdgeCases, MaximumReplicationEpsEqualsMMinusOne) {
  // ε = m - 1: every processor hosts a replica of every task.
  Scenario s = uniform_setup(chain(4, 20.0), 4, 5.0, 1.0);
  const std::size_t eps = 3;
  const SchedulerOptions options{eps, CommModelKind::kOnePort};
  CaftOptions caft_options;
  caft_options.base = options;
  const Schedule caft =
      caft_schedule(s.graph, *s.platform, *s.costs, caft_options);
  const Schedule ftsa = ftsa_schedule(s.graph, *s.platform, *s.costs, options);
  EXPECT_TRUE(validate_schedule(caft, *s.costs).ok());
  EXPECT_TRUE(validate_schedule(ftsa, *s.costs).ok());
  // With a copy everywhere, even m-1 failures are survivable.
  EXPECT_TRUE(check_resilience_exhaustive(caft, *s.costs, eps).resistant);
}

TEST(EdgeCases, DisconnectedGraph) {
  // Two unrelated components schedule independently but share resources.
  TaskGraph g;
  const TaskId a0 = g.add_task();
  const TaskId a1 = g.add_task();
  g.add_edge(a0, a1, 30.0);
  const TaskId b0 = g.add_task();
  const TaskId b1 = g.add_task();
  g.add_edge(b0, b1, 30.0);
  Scenario s = uniform_setup(std::move(g), 3, 10.0, 1.0);
  FtbarOptions options;
  options.base = {1, CommModelKind::kOnePort};
  const Schedule sched =
      ftbar_schedule(s.graph, *s.platform, *s.costs, options);
  EXPECT_TRUE(validate_schedule(sched, *s.costs).ok());
  EXPECT_TRUE(check_resilience_exhaustive(sched, *s.costs, 1).resistant);
}

TEST(EdgeCases, WideGraphManyMoreTasksThanProcessors) {
  // 64 independent tasks on 3 processors with eps=1: heavy serialization,
  // still valid and resistant.
  TaskGraph g;
  for (int i = 0; i < 64; ++i) g.add_task();
  Scenario s = uniform_setup(std::move(g), 3, 4.0, 1.0);
  CaftOptions options;
  options.base = {1, CommModelKind::kOnePort};
  const Schedule sched =
      caft_schedule(s.graph, *s.platform, *s.costs, options);
  EXPECT_TRUE(validate_schedule(sched, *s.costs).ok());
  EXPECT_TRUE(check_resilience_exhaustive(sched, *s.costs, 1).resistant);
  // Balance bound: 64 tasks x 2 copies x 4 time units over 3 procs.
  EXPECT_GE(sched.upper_bound_latency(),
            replicated_lower_bound(s.graph, *s.costs, 1) - 1e-9);
}

TEST(EdgeCases, ExtremeHeterogeneity) {
  // One processor is 1000x slower for every task: schedulers should avoid
  // it for the earliest copies.
  TaskGraph g = chain(5, 10.0);
  Platform platform(3);
  CostModel costs(g.task_count(), platform);
  for (const TaskId t : g.all_tasks()) {
    costs.set_exec(t, ProcId(0), 1.0);
    costs.set_exec(t, ProcId(1), 1.0);
    costs.set_exec(t, ProcId(2), 1000.0);
  }
  costs.set_all_unit_delays(0.5);
  const Schedule sched =
      heft_schedule(g, platform, costs, CommModelKind::kOnePort);
  EXPECT_LT(sched.zero_crash_latency(), 100.0);  // never touches P2
  for (const TaskId t : g.all_tasks())
    EXPECT_NE(sched.replica(t, 0).proc, ProcId(2));
}

TEST(EdgeCases, HugeVolumesTinyComputation) {
  // Granularity ~ 0.001: communication utterly dominates; co-location is
  // the only sane layout and all algorithms should find it for the chain.
  Scenario s = uniform_setup(chain(6, 10000.0), 4, 1.0, 1.0);
  for (const std::size_t eps : {0u, 1u}) {
    CaftOptions options;
    options.base = {eps, CommModelKind::kOnePort};
    const Schedule sched =
        caft_schedule(s.graph, *s.platform, *s.costs, options);
    // Fully local chains: zero inter-processor messages.
    EXPECT_EQ(sched.message_count(), 0u) << "eps " << eps;
    EXPECT_DOUBLE_EQ(sched.zero_crash_latency(), 6.0);
  }
}

TEST(EdgeCases, BatchLargerThanGraph) {
  Scenario s = uniform_setup(fork_join(3, 10.0), 4, 5.0, 1.0);
  CaftBatchOptions options;
  options.caft.base = {1, CommModelKind::kOnePort};
  options.batch_size = 1000;  // far larger than the task count
  const Schedule sched =
      caft_batch_schedule(s.graph, *s.platform, *s.costs, options);
  EXPECT_TRUE(validate_schedule(sched, *s.costs).ok());
}

TEST(EdgeCases, SelfConsistencyAcrossRepeatedScheduling) {
  // Scheduling the same instance repeatedly from fresh engines must agree
  // bit-for-bit (no hidden global state anywhere in the library).
  Scenario s = test::random_setup(77, 8, 0.6);
  CaftOptions options;
  options.base = {2, CommModelKind::kOnePort};
  const Schedule first =
      caft_schedule(s.graph, *s.platform, *s.costs, options);
  for (int run = 0; run < 3; ++run) {
    const Schedule again =
        caft_schedule(s.graph, *s.platform, *s.costs, options);
    EXPECT_DOUBLE_EQ(again.zero_crash_latency(), first.zero_crash_latency());
    EXPECT_EQ(again.comms().size(), first.comms().size());
  }
}

TEST(EdgeCases, ValidatorRejectsReceivePortOverlap) {
  // Two receptions overlapping at the same processor violate ineq. (3).
  TaskGraph g;
  const TaskId a = g.add_task();
  const TaskId b = g.add_task();
  const TaskId c = g.add_task();
  g.add_edge(a, c, 10.0);
  g.add_edge(b, c, 10.0);
  Platform platform(3);
  CostModel costs = uniform_costs(g, platform, 10.0, 1.0);
  Schedule bad(g, platform, 0, CommModelKind::kOnePort);
  bad.set_replica(a, 0, {ProcId(0), 0.0, 10.0});
  bad.set_replica(b, 0, {ProcId(1), 0.0, 10.0});
  bad.set_replica(c, 0, {ProcId(2), 20.0, 30.0});
  for (int src = 0; src < 2; ++src) {
    CommAssignment cm;
    cm.edge = static_cast<EdgeIndex>(src);
    cm.from = {src == 0 ? a : b, 0};
    cm.to = {c, 0};
    cm.src_proc = ProcId(static_cast<ProcId::value_type>(src));
    cm.dst_proc = ProcId(2);
    cm.volume = 10.0;
    cm.times.link_start = 10.0;
    cm.times.link_finish = 20.0;
    cm.times.send_finish = 20.0;
    cm.times.recv_start = 10.0;  // both receptions [10, 20] — overlap!
    cm.times.arrival = 20.0;
    const LinkOccupancy hop{
        platform.topology().direct_link(cm.src_proc, ProcId(2)), 10.0, 20.0};
    bad.add_comm(cm, {&hop, 1});
  }
  const ValidationResult result = validate_schedule(bad, costs);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.summary().find("receive port"), std::string::npos);
}

}  // namespace
}  // namespace caft
