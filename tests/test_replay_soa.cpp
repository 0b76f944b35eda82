// Micro-property suite pinning the SoA replay kernel introduced by the
// structure-of-arrays refactor:
//
//  - the dead-set closure (each dead processor's kill list pre-killed, then
//    the worklist propagation θ-deaths share) must match the naive
//    simulate_crashes reference on platforms on both sides of 64
//    processors, dead-from-start alone and mixed with θ-crashes;
//  - the order-relaxation fallback must be reached (asserted on the naive
//    result) and matched, and the deadlock branch is pinned as reachable
//    only from schedules the default engine rejects — and matched by a
//    template-only engine, which accepts them;
//  - θ-deaths must not fall back to full candidate refreshes (kernel
//    counters: one refresh per replay plus one per relaxation).
#include "sim/replay_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "algo/caft.hpp"
#include "campaign/scenario_sampler.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "dag/generators.hpp"
#include "helpers.hpp"
#include "sim/crash_sim.hpp"

namespace caft {
namespace {

using test::Scenario;

Schedule caft_for(const Scenario& s, std::size_t eps) {
  CaftOptions options;
  options.base = SchedulerOptions{eps, CommModelKind::kOnePort};
  return caft_schedule(s.graph, *s.platform, *s.costs, options);
}

/// Exact, field-by-field comparison; doubles compare with ==.
void expect_identical(const CrashResult& naive, const CrashResult& incr,
                      const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(naive.success, incr.success);
  EXPECT_EQ(naive.latency, incr.latency);
  EXPECT_EQ(naive.delivered_messages, incr.delivered_messages);
  EXPECT_EQ(naive.order_relaxations, incr.order_relaxations);
  EXPECT_EQ(naive.order_deadlock, incr.order_deadlock);
  ASSERT_EQ(naive.completed.size(), incr.completed.size());
  ASSERT_EQ(naive.finish.size(), incr.finish.size());
  for (std::size_t t = 0; t < naive.completed.size(); ++t) {
    ASSERT_EQ(naive.completed[t].size(), incr.completed[t].size());
    ASSERT_EQ(naive.finish[t].size(), incr.finish[t].size());
    for (std::size_t r = 0; r < naive.completed[t].size(); ++r) {
      EXPECT_EQ(naive.completed[t][r], incr.completed[t][r])
          << "task " << t << " replica " << r;
      EXPECT_EQ(naive.finish[t][r], incr.finish[t][r])
          << "task " << t << " replica " << r;
    }
  }
}

// ------------------------------------------------- dead-set closure sweep

/// Dead-from-start sets for a platform of `procs`: none, all, all but the
/// last, a singleton sweep and random subsets of mixed size.
std::vector<std::vector<std::size_t>> dead_sets(std::size_t procs, Rng& rng) {
  std::vector<std::vector<std::size_t>> sets(3);
  for (std::size_t p = 0; p < procs; ++p) sets[1].push_back(p);
  sets[2] = sets[1];
  sets[2].pop_back();
  for (std::size_t p = 0; p < procs; p += 7) sets.push_back({p});
  for (int draw = 0; draw < 16; ++draw) {
    const std::size_t cap =
        draw % 3 == 0 ? procs / 2 : std::min<std::size_t>(6, procs);
    const auto k = static_cast<std::size_t>(rng.uniform_int(1, cap));
    sets.push_back(rng.sample_without_replacement(procs, k));
  }
  return sets;
}

TEST(ReplaySoa, DeadSetClosureMatchesNaiveAcross64Procs) {
  // Every dead-from-start scenario goes through one closure, whatever the
  // platform width: random CAFT schedules at 10 and 64 processors and the
  // hand-posted chain at 65 and 72 straddle the width a 64-bit processor
  // mask would cover. Each dead set replays alone and mixed with θ-crashes
  // on other processors; both must match simulate_crashes byte for byte.
  struct Case {
    std::string label;
    const Schedule* schedule;
    const CostModel* costs;
  };
  RandomDagParams dag;
  dag.min_tasks = 20;
  dag.max_tasks = 40;
  const Scenario s10 = test::random_setup(101, 10, 2.0, dag);
  const Scenario s64 = test::random_setup(113, 64, 2.0, dag);
  const Schedule sched10 = caft_for(s10, 1);
  const Schedule sched64 = caft_for(s64, 1);
  const test::WideChain wide65(65);
  const test::WideChain wide72(72);
  const std::vector<Case> cases = {
      {"random m=10", &sched10, s10.costs.get()},
      {"random m=64", &sched64, s64.costs.get()},
      {"wide chain m=65", &wide65.schedule, &wide65.costs},
      {"wide chain m=72", &wide72.schedule, &wide72.costs}};

  ReplayEngine::Scratch scratch;
  const double inf = std::numeric_limits<double>::infinity();
  for (const Case& c : cases) {
    const std::size_t procs = c.schedule->platform().proc_count();
    const double horizon = c.schedule->horizon();
    const ReplayEngine engine(*c.schedule, *c.costs);
    Rng rng(procs * 31 + 7);
    std::size_t index = 0;
    for (const std::vector<std::size_t>& dead : dead_sets(procs, rng)) {
      std::vector<double> times(procs, inf);
      for (const std::size_t p : dead) times[p] = 0.0;
      const CrashScenario at_zero(times);
      // θ-crashes on up to three processors outside the dead set.
      for (const std::size_t p : rng.sample_without_replacement(procs, 3))
        if (times[p] == inf) times[p] = rng.uniform(0.0, horizon * 1.1);
      const CrashScenario mixed(std::move(times));
      for (const CrashScenario* scenario : {&at_zero, &mixed}) {
        const CrashResult naive =
            simulate_crashes(*c.schedule, *c.costs, *scenario);
        const CrashResult incr = engine.replay(*scenario, scratch);
        expect_identical(naive, incr,
                         c.label + " set " + std::to_string(index) +
                             (scenario == &at_zero ? " dead" : " dead+theta"));
      }
      ++index;
    }
  }
}

TEST(ReplaySoa, MidRunCrashesMatchNaiveOn64Procs) {
  // θ-crashes (strictly positive crash instants) take the event-driven
  // path — candidate cache, propagate() after each θ-death — rather than
  // the up-front closure. Pin that side on the same wide platform.
  RandomDagParams dag;
  dag.min_tasks = 20;
  dag.max_tasks = 35;
  const Scenario s = test::random_setup(127, 64, 1.0, dag);
  const Schedule schedule = caft_for(s, 1);
  const ReplayEngine engine(schedule, *s.costs);
  const double horizon = schedule.horizon();
  ReplayEngine::Scratch scratch;
  Rng rng(1279);
  const double inf = std::numeric_limits<double>::infinity();

  for (int draw = 0; draw < 24; ++draw) {
    std::vector<double> times(64, inf);
    const std::size_t k = static_cast<std::size_t>(rng.uniform_int(1, 4));
    for (const std::size_t p : rng.sample_without_replacement(64, k))
      times[p] = rng.uniform(0.0, horizon * 1.1);
    const CrashScenario scenario(std::move(times));
    const CrashResult naive = simulate_crashes(schedule, *s.costs, scenario);
    const CrashResult incr = engine.replay(scenario, scratch);
    expect_identical(naive, incr, "theta draw " + std::to_string(draw));
  }
}

// -------------------------------------- order relaxation and deadlock cases

/// Hand-posted macro-dataflow chain B -> C -> A, two replicas per task on
/// five processors, in which A^0 is committed *before* B^0 on P0 although
/// A^0 can also be fed (late) by the chain B^0 -> C^0. Fault-free, A^0
/// runs off the early chain B^1 (P1) -> C^1 (P3). Once P1 is lost, A^0
/// waits for C^0, which waits for B^0, which waits behind A^0: the strict
/// committed order is a circular wait, and only the relaxation fallback
/// (B^0 jumps the queue) completes the replay.
struct RelaxationCase {
  TaskGraph graph = chain(3, 5.0);
  Platform platform{5};
  CostModel costs = uniform_costs(graph, platform, 10.0, 1.0);
  Schedule schedule{graph, platform, 1, CommModelKind::kMacroDataflow};

  RelaxationCase() {
    const std::vector<TaskId> t = graph.all_tasks();  // B, C, A
    schedule.set_replica(t[0], 0, {ProcId(0), 32.0, 42.0});  // B^0
    schedule.set_replica(t[0], 1, {ProcId(1), 0.0, 10.0});   // B^1
    schedule.set_replica(t[1], 0, {ProcId(2), 43.0, 53.0});  // C^0
    schedule.set_replica(t[1], 1, {ProcId(3), 11.0, 21.0});  // C^1
    schedule.set_replica(t[2], 0, {ProcId(0), 22.0, 32.0});  // A^0
    schedule.set_replica(t[2], 1, {ProcId(4), 22.0, 32.0});  // A^1
    const auto comm = [&](EdgeIndex edge, ReplicaRef from, ReplicaRef to,
                          double sent) {
      CommAssignment c;
      c.edge = edge;
      c.from = from;
      c.to = to;
      c.src_proc = schedule.replica(from.task, from.replica).proc;
      c.dst_proc = schedule.replica(to.task, to.replica).proc;
      c.volume = 5.0;
      c.times.link_start = sent;
      c.times.arrival = sent + 1.0;
      schedule.add_comm(c);
    };
    comm(0, {t[0], 0}, {t[1], 0}, 42.0);  // B^0 -> C^0
    comm(0, {t[0], 1}, {t[1], 1}, 10.0);  // B^1 -> C^1
    comm(1, {t[1], 0}, {t[2], 0}, 53.0);  // C^0 -> A^0 (late)
    comm(1, {t[1], 1}, {t[2], 0}, 21.0);  // C^1 -> A^0
    comm(1, {t[1], 0}, {t[2], 1}, 53.0);  // C^0 -> A^1
    comm(1, {t[1], 1}, {t[2], 1}, 21.0);  // C^1 -> A^1
  }
};

TEST(ReplaySoa, OrderRelaxationFallbackMatchesNaive) {
  const RelaxationCase c;
  ASSERT_TRUE(c.schedule.complete());
  const ReplayEngine engine(c.schedule, c.costs);
  ReplayEngine::Scratch scratch;
  const double inf = std::numeric_limits<double>::infinity();

  // P1 dead from the start (dead-set closure), and P1 crashing at θ = 5
  // while B^1 runs (θ-death and propagate()): both reach the fallback.
  const std::vector<CrashScenario> scenarios = {
      CrashScenario::at_zero(5, {ProcId(1)}),
      CrashScenario({inf, 5.0, inf, inf, inf})};
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const CrashResult naive =
        simulate_crashes(c.schedule, c.costs, scenarios[i]);
    ASSERT_GT(naive.order_relaxations, 0u) << "scenario " << i;
    ASSERT_TRUE(naive.success) << "scenario " << i;
    const std::uint64_t refreshes = scratch.full_refreshes();
    const CrashResult incr = engine.replay(scenarios[i], scratch);
    expect_identical(naive, incr, "relaxation scenario " + std::to_string(i));
    // One refresh on entry plus one after each queue jump.
    EXPECT_EQ(scratch.full_refreshes() - refreshes,
              1 + incr.order_relaxations);
  }
}

TEST(ReplaySoa, OrderDeadlockOnlyFromSchedulesTheEngineRejects) {
  // A replay whose fault-free run completes cannot deadlock under crashes:
  // a pending op with no pending prerequisite or input is runnable (a dead
  // prerequisite or an all-dead input slot would have killed it), so the
  // relaxation fallback always finds one. The naive replay's deadlock
  // branch is therefore reachable only from a schedule that deadlocks
  // fault-free — here a replica with no communication on its in-edge.
  // The default engine rejects such a schedule when it records the
  // fault-free timeline; a template-only engine records nothing, accepts
  // it, and must reproduce the naive deadlock bit for bit.
  const TaskGraph graph = chain(2, 5.0);
  const Platform platform(2);
  const CostModel costs = uniform_costs(graph, platform, 10.0, 1.0);
  Schedule schedule(graph, platform, 0, CommModelKind::kMacroDataflow);
  const std::vector<TaskId> t = graph.all_tasks();
  schedule.set_replica(t[0], 0, {ProcId(0), 0.0, 10.0});
  schedule.set_replica(t[1], 0, {ProcId(1), 11.0, 21.0});  // never fed
  ASSERT_TRUE(schedule.complete());

  const CrashResult naive =
      simulate_crashes(schedule, costs, CrashScenario::none(2));
  EXPECT_TRUE(naive.order_deadlock);
  EXPECT_FALSE(naive.success);
  EXPECT_THROW(ReplayEngine(schedule, costs), CheckError);

  ReplayEngineOptions template_only;
  template_only.max_snapshots = 0;
  const ReplayEngine engine(schedule, costs, template_only);
  ReplayEngine::Scratch scratch;
  expect_identical(naive, engine.replay(CrashScenario::none(2), scratch),
                   "template-only, fault-free");
  const CrashScenario p1_dead = CrashScenario::at_zero(2, {ProcId(1)});
  expect_identical(simulate_crashes(schedule, costs, p1_dead),
                   engine.replay(p1_dead, scratch), "template-only, P1 dead");
}

// ------------------------------------------------------- kernel counters

TEST(ReplaySoa, ThetaDeathsRefreshNoMoreThanEntryAndRelaxations) {
  // A θ-death and its propagate() dirty only the resources they can
  // affect; a full candidate refresh happens once per replay and once
  // after each order relaxation. A silent fallback to refreshing on every
  // death (hundreds per replay here) fails this test.
  RandomDagParams dag;
  dag.min_tasks = 80;
  dag.max_tasks = 80;
  const Scenario s = test::random_setup(149, 20, 1.0, dag);
  const Schedule schedule = caft_for(s, 2);
  const ReplayEngine engine(schedule, *s.costs);
  const CrashWindowSampler sampler(20, 2, 0.0, schedule.horizon() / 2.0);
  ReplayEngine::Scratch scratch;
  Rng rng(1493);
  std::size_t lost_replicas = 0;
  for (int draw = 0; draw < 16; ++draw) {
    const CrashScenario scenario = sampler.sample(rng);
    const std::uint64_t refreshes = scratch.full_refreshes();
    const std::uint64_t commits = scratch.commits();
    const CrashResult incr = engine.replay(scenario, scratch);
    expect_identical(simulate_crashes(schedule, *s.costs, scenario), incr,
                     "window draw " + std::to_string(draw));
    EXPECT_EQ(scratch.full_refreshes() - refreshes,
              1 + incr.order_relaxations);
    EXPECT_GT(scratch.commits(), commits);
    for (const std::vector<bool>& done : incr.completed)
      lost_replicas += static_cast<std::size_t>(
          std::count(done.begin(), done.end(), false));
  }
  EXPECT_GT(lost_replicas, 0u) << "the draws must kill work mid-replay";
}

TEST(ReplaySoa, ThetaCommitsRefreshFewLeaves) {
  // The commit loop touches only state that can change an event choice:
  // on a clique no link is a resource (each carries one sender's first-hop
  // wires only); a commit marks a dependent's resource only where the
  // dependent heads the queue; and it marks the exec it feeds only when
  // that input slot's arrival dropped and none of the exec's slots is left
  // waiting. Re-deriving candidates that cannot have changed (2.87 leaf
  // refreshes per commit on this schedule before the first two rules, 1.53
  // with them, 1.32 with all three) fails this test.
  RandomDagParams dag;
  dag.min_tasks = 300;
  dag.max_tasks = 300;
  const Scenario s = test::random_setup(151, 20, 1.0, dag);
  const Schedule schedule = caft_for(s, 2);
  const ReplayEngine engine(schedule, *s.costs);
  const CrashWindowSampler sampler(20, 2, 0.0, schedule.horizon() / 2.0);
  ReplayEngine::Scratch scratch;
  Rng rng(1511);
  for (int draw = 0; draw < 16; ++draw)
    (void)engine.replay(sampler.sample(rng), scratch);
  ASSERT_GT(scratch.commits(), 0u);
  const double ratio = static_cast<double>(scratch.leaf_refreshes()) /
                       static_cast<double>(scratch.commits());
  EXPECT_LE(ratio, 1.4) << "leaf refreshes per commit";
}

}  // namespace
}  // namespace caft
