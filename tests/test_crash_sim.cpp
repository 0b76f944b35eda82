// Tests for the fail-stop crash re-execution (sim/crash_sim): empty crash
// sets reproduce committed times; crashes remove work and reroute inputs.
#include "sim/crash_sim.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "algo/caft.hpp"
#include "algo/ftsa.hpp"
#include "algo/heft.hpp"
#include "comm/one_port.hpp"
#include "platform/cost_synthesis.hpp"
#include "sim/resilience.hpp"
#include "helpers.hpp"

namespace caft {
namespace {

using test::Scenario;
using test::random_setup;
using test::uniform_setup;

ProcId P(std::size_t i) { return ProcId(static_cast<ProcId::value_type>(i)); }

TEST(CrashScenario, Constructors) {
  const CrashScenario none = CrashScenario::none(4);
  EXPECT_EQ(none.failed_count(), 0u);
  EXPECT_FALSE(none.dead_from_start(P(0)));

  const CrashScenario two = CrashScenario::at_zero(4, {P(1), P(3)});
  EXPECT_EQ(two.failed_count(), 2u);
  EXPECT_TRUE(two.dead_from_start(P(1)));
  EXPECT_FALSE(two.dead_from_start(P(0)));
}

TEST(CrashSim, NoCrashReproducesCommittedTimesHeft) {
  Scenario s = random_setup(1, 10, 1.0);
  const Schedule sched =
      heft_schedule(s.graph, *s.platform, *s.costs, CommModelKind::kOnePort);
  const CrashResult result =
      simulate_crashes(sched, *s.costs, CrashScenario::none(10));
  ASSERT_TRUE(result.success);
  EXPECT_FALSE(result.order_deadlock);
  EXPECT_NEAR(result.latency, sched.zero_crash_latency(), 1e-6);
  for (const TaskId t : s.graph.all_tasks()) {
    EXPECT_TRUE(result.completed[t.index()][0]);
    EXPECT_NEAR(result.finish[t.index()][0], sched.replica(t, 0).finish, 1e-6);
  }
}

TEST(CrashSim, NoCrashReproducesCommittedTimesFtsa) {
  Scenario s = random_setup(2, 10, 0.5);
  const Schedule sched = ftsa_schedule(
      s.graph, *s.platform, *s.costs, SchedulerOptions{2, CommModelKind::kOnePort});
  const CrashResult result =
      simulate_crashes(sched, *s.costs, CrashScenario::none(10));
  ASSERT_TRUE(result.success);
  for (const TaskId t : s.graph.all_tasks())
    for (ReplicaIndex r = 0; r < 3; ++r)
      EXPECT_NEAR(result.finish[t.index()][r], sched.replica(t, r).finish, 1e-6)
          << s.graph.name(t) << "#" << r;
}

TEST(CrashSim, NoCrashReproducesCommittedTimesCaft) {
  Scenario s = random_setup(3, 10, 1.0);
  CaftOptions options;
  options.base = SchedulerOptions{2, CommModelKind::kOnePort};
  const Schedule sched = caft_schedule(s.graph, *s.platform, *s.costs, options);
  const CrashResult result =
      simulate_crashes(sched, *s.costs, CrashScenario::none(10));
  ASSERT_TRUE(result.success);
  for (const TaskId t : s.graph.all_tasks())
    for (ReplicaIndex r = 0; r < 3; ++r)
      EXPECT_NEAR(result.finish[t.index()][r], sched.replica(t, r).finish, 1e-6)
          << s.graph.name(t) << "#" << r;
}

TEST(CrashSim, NoCrashReproducesMacroDataflow) {
  Scenario s = random_setup(4, 10, 1.0);
  const Schedule sched =
      ftsa_schedule(s.graph, *s.platform, *s.costs,
                    SchedulerOptions{1, CommModelKind::kMacroDataflow});
  const CrashResult result =
      simulate_crashes(sched, *s.costs, CrashScenario::none(10));
  ASSERT_TRUE(result.success);
  EXPECT_NEAR(result.latency, sched.zero_crash_latency(), 1e-6);
}

TEST(CrashSim, UnreplicatedScheduleDiesWithItsProcessor) {
  Scenario s = uniform_setup(chain(3, 10.0), 3, 10.0, 1.0);
  const Schedule sched =
      heft_schedule(s.graph, *s.platform, *s.costs, CommModelKind::kOnePort);
  // The whole chain sits on one processor; killing it loses everything.
  const ProcId used = sched.replica(TaskId(0), 0).proc;
  const CrashResult result = simulate_crashes(
      sched, *s.costs, CrashScenario::at_zero(3, {used}));
  EXPECT_FALSE(result.success);
  EXPECT_TRUE(std::isinf(result.latency));
}

TEST(CrashSim, ReplicatedScheduleSurvivesOneCrash) {
  Scenario s = uniform_setup(chain(3, 10.0), 3, 10.0, 1.0);
  const Schedule sched = ftsa_schedule(
      s.graph, *s.platform, *s.costs, SchedulerOptions{1, CommModelKind::kOnePort});
  for (std::size_t p = 0; p < 3; ++p) {
    const CrashResult result = simulate_crashes(
        sched, *s.costs, CrashScenario::at_zero(3, {P(p)}));
    EXPECT_TRUE(result.success) << "crashed P" << p;
    EXPECT_TRUE(std::isfinite(result.latency));
  }
}

TEST(CrashSim, CrashedReplicasReportIncomplete) {
  Scenario s = uniform_setup(chain(2, 10.0), 3, 10.0, 1.0);
  const Schedule sched = ftsa_schedule(
      s.graph, *s.platform, *s.costs, SchedulerOptions{1, CommModelKind::kOnePort});
  const ProcId victim = sched.replica(TaskId(0), 0).proc;
  const CrashResult result = simulate_crashes(
      sched, *s.costs, CrashScenario::at_zero(3, {victim}));
  ASSERT_TRUE(result.success);
  for (const TaskId t : s.graph.all_tasks())
    for (ReplicaIndex r = 0; r < 2; ++r)
      if (sched.replica(t, r).proc == victim) {
        EXPECT_FALSE(result.completed[t.index()][r]);
      }
}

TEST(CrashSim, LatencyCanMoveEitherWayUnderCrash) {
  // Section 6 discusses that the re-executed latency may be smaller or
  // larger than the 0-crash estimate. Verify both directions occur across
  // seeds (on FTSA, whose port contention reacts strongly to removals).
  bool saw_decrease = false, saw_increase = false;
  for (std::uint64_t seed = 1; seed <= 12 && !(saw_decrease && saw_increase);
       ++seed) {
    Scenario s = random_setup(seed, 10, 0.4);
    const Schedule sched = ftsa_schedule(
        s.graph, *s.platform, *s.costs,
        SchedulerOptions{2, CommModelKind::kOnePort});
    const double base = sched.zero_crash_latency();
    for (std::size_t p = 0; p < 10; ++p) {
      const CrashResult result = simulate_crashes(
          sched, *s.costs, CrashScenario::at_zero(10, {P(p)}));
      if (!result.success) continue;
      if (result.latency < base - 1e-9) saw_decrease = true;
      if (result.latency > base + 1e-9) saw_increase = true;
    }
  }
  EXPECT_TRUE(saw_decrease);
  EXPECT_TRUE(saw_increase);
}

TEST(CrashSim, DeliveredMessagesDropWithCrash) {
  Scenario s = random_setup(5, 10, 0.5);
  const Schedule sched = ftsa_schedule(
      s.graph, *s.platform, *s.costs, SchedulerOptions{2, CommModelKind::kOnePort});
  const CrashResult clean =
      simulate_crashes(sched, *s.costs, CrashScenario::none(10));
  const CrashResult crashed = simulate_crashes(
      sched, *s.costs, CrashScenario::at_zero(10, {P(0), P(1)}));
  ASSERT_TRUE(crashed.success);
  EXPECT_LT(crashed.delivered_messages, clean.delivered_messages);
  EXPECT_EQ(clean.delivered_messages, sched.message_count());
}

TEST(CrashSim, CrashAtTimePreservesEarlyWork) {
  // chain(2) on one processor, exec 10 each: crash at t = 15 kills the
  // second task but the first completed at 10.
  Scenario s = uniform_setup(chain(2, 1.0), 2, 10.0, 1.0);
  const Schedule sched =
      heft_schedule(s.graph, *s.platform, *s.costs, CommModelKind::kOnePort);
  const ProcId used = sched.replica(TaskId(0), 0).proc;
  CrashScenario scenario = CrashScenario::none(2);
  scenario.set_crash_time(used, 15.0);
  const CrashResult result = simulate_crashes(sched, *s.costs, scenario);
  EXPECT_FALSE(result.success);  // t1 lost
  EXPECT_TRUE(result.completed[0][0]);
  EXPECT_FALSE(result.completed[1][0]);
}

TEST(CrashSim, CrashAfterEverythingIsHarmless) {
  Scenario s = random_setup(6, 10, 1.0);
  const Schedule sched =
      heft_schedule(s.graph, *s.platform, *s.costs, CommModelKind::kOnePort);
  CrashScenario scenario = CrashScenario::none(10);
  scenario.set_crash_time(P(0), sched.zero_crash_latency() + 1.0);
  const CrashResult result = simulate_crashes(sched, *s.costs, scenario);
  EXPECT_TRUE(result.success);
  EXPECT_NEAR(result.latency, sched.zero_crash_latency(), 1e-6);
}

TEST(CrashSim, AllProcessorsDeadFailsOutright) {
  Scenario s = uniform_setup(chain(2, 1.0), 3, 10.0, 1.0);
  const Schedule sched = ftsa_schedule(
      s.graph, *s.platform, *s.costs, SchedulerOptions{1, CommModelKind::kOnePort});
  const CrashResult result = simulate_crashes(
      sched, *s.costs, CrashScenario::at_zero(3, {P(0), P(1), P(2)}));
  EXPECT_FALSE(result.success);
}

TEST(CrashScenario, RejectsOutOfRangeProcessor) {
  CrashScenario scenario = CrashScenario::none(4);
  EXPECT_THROW((void)scenario.crash_time(P(4)), CheckError);
  EXPECT_THROW((void)scenario.dead_from_start(P(5)), CheckError);
  EXPECT_THROW(scenario.set_crash_time(P(7), 1.0), CheckError);
  EXPECT_THROW(CrashScenario::at_zero(4, {P(9)}), CheckError);
}

TEST(CrashScenario, RejectsNanAndNegativeCrashTimes) {
  CrashScenario scenario = CrashScenario::none(4);
  EXPECT_THROW(
      scenario.set_crash_time(P(0), std::numeric_limits<double>::quiet_NaN()),
      CheckError);
  EXPECT_THROW(scenario.set_crash_time(P(0), -1.0), CheckError);
  EXPECT_THROW(CrashScenario({1.0, std::numeric_limits<double>::quiet_NaN()}),
               CheckError);
  EXPECT_THROW(CrashScenario({-0.5}), CheckError);
}

// Property (crash-at-θ extension): θ = 0 must behave exactly like the
// dead-from-start model of CrashScenario::at_zero — same survivors, same
// times, bit for bit.
TEST(CrashSim, ThetaZeroMatchesAtZero) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Scenario s = random_setup(seed, 10, 0.8);
    CaftOptions options;
    options.base = SchedulerOptions{2, CommModelKind::kOnePort};
    const Schedule sched =
        caft_schedule(s.graph, *s.platform, *s.costs, options);
    const std::vector<ProcId> failed = {P(seed % 10), P((seed + 4) % 10)};
    CrashScenario theta = CrashScenario::none(10);
    for (const ProcId p : failed) theta.set_crash_time(p, 0.0);
    const CrashResult via_theta = simulate_crashes(sched, *s.costs, theta);
    const CrashResult via_at_zero = simulate_crashes(
        sched, *s.costs, CrashScenario::at_zero(10, failed));
    EXPECT_EQ(via_theta.success, via_at_zero.success);
    EXPECT_EQ(via_theta.latency, via_at_zero.latency);
    EXPECT_EQ(via_theta.completed, via_at_zero.completed);
    EXPECT_EQ(via_theta.finish, via_at_zero.finish);
    EXPECT_EQ(via_theta.delivered_messages, via_at_zero.delivered_messages);
    EXPECT_EQ(via_theta.order_relaxations, via_at_zero.order_relaxations);
  }
}

// Property (crash-at-θ extension): θ = +inf on every processor is the
// no-crash replay and must reproduce the committed timetable bit for bit.
TEST(CrashSim, ThetaInfinityMatchesCommittedTimetable) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Scenario s = random_setup(seed, 10, 0.8);
    CaftOptions options;
    options.base = SchedulerOptions{2, CommModelKind::kOnePort};
    const Schedule sched =
        caft_schedule(s.graph, *s.platform, *s.costs, options);
    CrashScenario theta = CrashScenario::none(10);
    for (std::size_t p = 0; p < 10; ++p)
      theta.set_crash_time(P(p), std::numeric_limits<double>::infinity());
    const CrashResult result = simulate_crashes(sched, *s.costs, theta);
    ASSERT_TRUE(result.success);
    EXPECT_EQ(result.order_relaxations, 0u);
    EXPECT_EQ(result.latency, sched.zero_crash_latency());
    for (const TaskId t : s.graph.all_tasks())
      for (ReplicaIndex r = 0; r < sched.total_replicas(t); ++r) {
        EXPECT_TRUE(result.completed[t.index()][r]);
        EXPECT_EQ(result.finish[t.index()][r], sched.replica(t, r).finish)
            << s.graph.name(t) << "#" << r;
      }
  }
}

TEST(CrashSim, MismatchedScenarioRejected) {
  Scenario s = uniform_setup(chain(2, 1.0), 3, 10.0, 1.0);
  const Schedule sched =
      heft_schedule(s.graph, *s.platform, *s.costs, CommModelKind::kOnePort);
  EXPECT_THROW(simulate_crashes(sched, *s.costs, CrashScenario::none(5)),
               CheckError);
}


TEST(CrashSimSparse, NoCrashReproducesMultiHopTimetable) {
  // Star topology: cross-leaf messages have two segments; the replay must
  // still reproduce the committed timetable exactly.
  Rng rng(21);
  RandomDagParams dp;
  dp.min_tasks = 20;
  dp.max_tasks = 30;
  const TaskGraph g = random_dag(dp, rng);
  Platform platform(Topology::star(6));
  CostSynthesisParams cp;
  cp.granularity = 1.0;
  const CostModel costs = synthesize_costs(g, platform, cp, rng);
  CaftOptions options;
  options.base = SchedulerOptions{1, CommModelKind::kOnePort};
  const Schedule sched = caft_schedule(g, platform, costs, options);
  // The schedule actually exercises multi-hop routes.
  std::size_t multi_hop = 0;
  for (const CommAssignment& c : sched.comms())
    multi_hop += sched.hops(c).size() > 1 ? 1u : 0u;
  ASSERT_GT(multi_hop, 0u);

  const CrashResult result =
      simulate_crashes(sched, costs, CrashScenario::none(6));
  ASSERT_TRUE(result.success);
  for (const TaskId t : g.all_tasks())
    for (ReplicaIndex r = 0; r < 2; ++r)
      EXPECT_NEAR(result.finish[t.index()][r], sched.replica(t, r).finish, 1e-6);
}

TEST(CrashSimSparse, DeadRouterBlocksTransitButNotLocalWork) {
  // Line P0 - P1 - P2: a message P0 -> P2 transits P1. With P1 dead the
  // message never arrives, but work local to P0/P2 proceeds.
  TaskGraph g;
  const TaskId a = g.add_task("a");
  const TaskId b = g.add_task("b");
  g.add_edge(a, b, 10.0);
  Platform platform(Topology::custom(3, {{0, 1}, {1, 2}}));
  CostModel costs = uniform_costs(g, platform, 10.0, 1.0);
  Schedule sched(g, platform, 0, CommModelKind::kOnePort);

  OnePortEngine engine(platform, costs);
  const TaskTimes at = engine.post_exec(ProcId(0), 0.0, 10.0);
  sched.set_replica(a, 0, {ProcId(0), at.start, at.finish});
  std::vector<LinkOccupancy> hops;
  const CommTimes comm =
      engine.post_comm(ProcId(0), ProcId(2), 10.0, at.finish, &hops);
  CommAssignment ca;
  ca.edge = 0;
  ca.from = {a, 0};
  ca.to = {b, 0};
  ca.src_proc = ProcId(0);
  ca.dst_proc = ProcId(2);
  ca.volume = 10.0;
  ca.times = comm;
  sched.add_comm(ca, hops);
  const TaskTimes bt = engine.post_exec(ProcId(2), comm.arrival, 10.0);
  sched.set_replica(b, 0, {ProcId(2), bt.start, bt.finish});

  // Sanity: clean replay reproduces the committed two-segment times.
  const CrashResult clean = simulate_crashes(sched, costs, CrashScenario::none(3));
  ASSERT_TRUE(clean.success);
  EXPECT_NEAR(clean.latency, sched.zero_crash_latency(), 1e-9);

  // P1 (pure router) dead: a still completes, b starves.
  const CrashResult routed = simulate_crashes(
      sched, costs, CrashScenario::at_zero(3, {ProcId(1)}));
  EXPECT_FALSE(routed.success);
  EXPECT_TRUE(routed.completed[a.index()][0]);
  EXPECT_FALSE(routed.completed[b.index()][0]);
  EXPECT_EQ(routed.delivered_messages, 0u);
}

TEST(CrashSimSparse, TransitiveCaftSurvivesRouterCrashOnLine) {
  // Line topology P0 - P1 - P2, chain graph, eps = 1: with route-aware
  // supports the transitive mode keeps each replica chain local to one
  // processor, so even the middle router's death is survivable.
  const TaskGraph g = chain(5, 50.0);
  Platform platform(Topology::custom(3, {{0, 1}, {1, 2}}));
  const CostModel costs = uniform_costs(g, platform, 10.0, 1.0);
  CaftOptions options;
  options.base = SchedulerOptions{1, CommModelKind::kOnePort};
  options.support_mode = CaftSupportMode::kTransitive;
  const Schedule sched = caft_schedule(g, platform, costs, options);
  const ResilienceReport report = check_resilience_exhaustive(sched, costs, 1);
  EXPECT_TRUE(report.resistant)
      << report.failures << "/" << report.scenarios_tested;
}

/// Replay fidelity sweep: the committed timetable is reproduced exactly for
/// every algorithm/model/ε combination.
class ReplayFidelity
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, std::size_t, CommModelKind>> {};

TEST_P(ReplayFidelity, ZeroCrashMatchesCommitted) {
  const auto [seed, eps, model] = GetParam();
  Scenario s = random_setup(seed, 10, 0.7);
  const Schedule sched =
      ftsa_schedule(s.graph, *s.platform, *s.costs, SchedulerOptions{eps, model});
  const CrashResult result =
      simulate_crashes(sched, *s.costs, CrashScenario::none(10));
  ASSERT_TRUE(result.success);
  EXPECT_FALSE(result.order_deadlock);
  EXPECT_NEAR(result.latency, sched.zero_crash_latency(), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReplayFidelity,
    ::testing::Combine(::testing::Values(11u, 12u, 13u),
                       ::testing::Values(0u, 1u, 2u),
                       ::testing::Values(CommModelKind::kOnePort,
                                         CommModelKind::kMacroDataflow)));

}  // namespace
}  // namespace caft
