// Direct tests for the shared placement machinery (algo/list_core): the
// evaluate/commit protocol, plan building, and support masks.
#include "algo/list_core.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "algo/caft.hpp"
#include "algo/ftbar.hpp"
#include "algo/ftsa.hpp"
#include "comm/one_port.hpp"
#include "counting_allocator.hpp"
#include "dag/generators.hpp"
#include "exp/config.hpp"
#include "helpers.hpp"
#include "platform/cost_synthesis.hpp"

namespace caft {
namespace {

TaskId T(std::size_t i) { return TaskId(static_cast<TaskId::value_type>(i)); }
ProcId P(std::size_t i) { return ProcId(static_cast<ProcId::value_type>(i)); }

/// join(2) on 3 processors, exec 10, delay 1, volumes 10; eps = 1.
struct Fixture {
  TaskGraph g = join(2, 10.0);
  Platform platform{3};
  CostModel costs = uniform_costs(g, platform, 10.0, 1.0);
  Schedule schedule{g, platform, 1, CommModelKind::kOnePort};
  OnePortEngine engine{platform, costs};
  Placer placer{g, costs, engine, schedule};
};

TEST(SupportMask, SupportOfSetsOneBit) {
  EXPECT_EQ(support_of(P(0)), 1u);
  EXPECT_EQ(support_of(P(5)), 32u);
}

TEST(SupportMap, GetSetRoundTrip) {
  SupportMap map(4, 2);
  EXPECT_EQ(map.get(T(1), 0), 0u);
  map.set(T(1), 0, 0b101);
  EXPECT_EQ(map.get(T(1), 0), 0b101u);
  EXPECT_EQ(map.get(T(1), 1), 0u);  // other replica untouched
  EXPECT_THROW((void)map.get(T(0), 2), CheckError);  // only primaries
}

TEST(Placer, EvaluateDoesNotMutateEngineOrSchedule) {
  Fixture f;
  // Place the two sources first.
  f.placer.commit(T(0), 0, P(0), {});
  f.placer.commit(T(0), 1, P(1), {});
  f.placer.commit(T(1), 0, P(1), {});
  f.placer.commit(T(1), 1, P(2), {});

  // Every clock of the 3-clique, read through the engine's accessors.
  const auto clocks = [&f] {
    std::vector<double> out;
    for (std::size_t p = 0; p < 3; ++p) {
      out.push_back(f.engine.proc_ready(P(p)));
      out.push_back(f.engine.sending_free(P(p)));
      out.push_back(f.engine.receiving_free(P(p)));
    }
    for (std::size_t l = 0; l < f.platform.topology().link_count(); ++l)
      out.push_back(
          f.engine.link_ready(LinkId(static_cast<LinkId::value_type>(l))));
    return out;
  };
  const std::vector<double> before = clocks();
  const std::size_t comms_before = f.schedule.comms().size();
  std::vector<IncomingPlan> plans;
  f.placer.receive_all_plans(T(2), P(0), plans);
  const TaskTimes times = f.placer.evaluate(T(2), P(0), plans);
  EXPECT_GT(times.start, 0.0);  // the trial did post messages
  EXPECT_EQ(clocks(), before);
  EXPECT_EQ(f.schedule.comms().size(), comms_before);
}

TEST(Placer, CommitMatchesEvaluation) {
  Fixture f;
  f.placer.commit(T(0), 0, P(0), {});
  f.placer.commit(T(0), 1, P(1), {});
  f.placer.commit(T(1), 0, P(1), {});
  f.placer.commit(T(1), 1, P(2), {});

  std::vector<IncomingPlan> plans;
  f.placer.receive_all_plans(T(2), P(0), plans);
  const TaskTimes predicted = f.placer.evaluate(T(2), P(0), plans);
  const TaskTimes committed = f.placer.commit(T(2), 0, P(0), plans);
  EXPECT_DOUBLE_EQ(predicted.start, committed.start);
  EXPECT_DOUBLE_EQ(predicted.finish, committed.finish);
  EXPECT_DOUBLE_EQ(f.schedule.replica(T(2), 0).finish, committed.finish);
}

TEST(Placer, ReceiveAllPlansListAllPrimaries) {
  Fixture f;
  f.placer.commit(T(0), 0, P(0), {});
  f.placer.commit(T(0), 1, P(1), {});
  f.placer.commit(T(1), 0, P(1), {});
  f.placer.commit(T(1), 1, P(2), {});

  // Target P0 hosts t0#0 -> that edge collapses to the co-located copy;
  // the other edge lists both primaries of t1.
  std::vector<IncomingPlan> plans;
  f.placer.receive_all_plans(T(2), P(0), plans);
  ASSERT_EQ(plans.size(), 2u);
  EXPECT_EQ(plans[0].senders.size(), 1u);  // co-located t0#0
  EXPECT_EQ(plans[0].senders[0].proc, P(0));
  EXPECT_EQ(plans[1].senders.size(), 2u);  // both copies of t1
}

TEST(Placer, SupportsGateTheColocatedRule) {
  Fixture f;
  f.placer.commit(T(0), 0, P(0), {});
  f.placer.commit(T(0), 1, P(1), {});
  f.placer.commit(T(1), 0, P(1), {});
  f.placer.commit(T(1), 1, P(2), {});

  // t0#0 on P0 declared to depend on P2 as well: relying on it alone from
  // P0 would not be safe, so the plan keeps all primaries for that edge.
  SupportMap supports(f.g.task_count(), 2);
  supports.set(T(0), 0, support_of(P(0)) | support_of(P(2)));
  supports.set(T(0), 1, support_of(P(1)));
  supports.set(T(1), 0, support_of(P(1)));
  supports.set(T(1), 1, support_of(P(2)));
  std::vector<IncomingPlan> plans;
  f.placer.receive_all_plans(T(2), P(0), plans, &supports);
  ASSERT_EQ(plans.size(), 2u);
  EXPECT_EQ(plans[0].senders.size(), 2u);  // co-location rule suppressed
}

TEST(Placer, ArrivalsReportedPerPlan) {
  Fixture f;
  f.placer.commit(T(0), 0, P(0), {});
  f.placer.commit(T(0), 1, P(1), {});
  f.placer.commit(T(1), 0, P(1), {});
  f.placer.commit(T(1), 1, P(2), {});

  std::vector<IncomingPlan> plans;
  f.placer.receive_all_plans(T(2), P(0), plans);
  std::vector<double> arrivals;
  const TaskTimes times = f.placer.evaluate(T(2), P(0), plans, &arrivals);
  ASSERT_EQ(arrivals.size(), plans.size());
  // The start is exactly the max of the per-edge first arrivals here (the
  // processor is free after its own replica at t=10 and arrivals dominate).
  EXPECT_DOUBLE_EQ(times.start, std::max(arrivals[0], arrivals[1]));
  // Intra edge arrives at the source finish (t0#0 finishes at 10).
  EXPECT_DOUBLE_EQ(arrivals[0], 10.0);
}

TEST(Placer, EmptyPlanRejectsEmptySenderList) {
  Fixture f;
  f.placer.commit(T(0), 0, P(0), {});
  IncomingPlan bad;
  bad.edge = 0;
  bad.volume = 10.0;  // no senders
  std::vector<IncomingPlan> plans{bad};
  EXPECT_THROW((void)f.placer.evaluate(T(2), P(0), plans), CheckError);
}

TEST(Placer, DuplicateCommitRecordsExtraReplica) {
  Fixture f;
  f.placer.commit(T(0), 0, P(0), {});
  f.placer.commit(T(0), 1, P(1), {});
  ReplicaIndex dup = 0;
  const TaskTimes times = f.placer.commit_duplicate(T(0), P(2), {}, dup);
  EXPECT_GE(dup, 2u);
  EXPECT_EQ(f.schedule.total_replicas(T(0)), 3u);
  EXPECT_DOUBLE_EQ(f.schedule.replica(T(0), dup).finish, times.finish);
}

TEST(Placer, WarmEvaluationSweepAllocatesNothing) {
  // join(3) with eps = 1: the sources sit on two processors each, so the
  // sink's plans mix co-located single senders with two-sender edges, and
  // on the ring most messages cross several links.
  for (const bool ring : {false, true}) {
    SCOPED_TRACE(ring ? "ring(6)" : "clique(6)");
    const TaskGraph g = join(3, 10.0);
    const Platform platform(ring ? Topology::ring(6) : Topology::clique(6));
    const CostModel costs = uniform_costs(g, platform, 10.0, 1.0);
    Schedule schedule(g, platform, 1, CommModelKind::kOnePort);
    OnePortEngine engine(platform, costs);
    Placer placer(g, costs, engine, schedule);
    for (std::size_t t = 0; t < 3; ++t) {
      placer.commit(T(t), 0, P(t), {});
      placer.commit(T(t), 1, P(t + 2), {});
    }

    std::vector<IncomingPlan> plans;
    std::vector<double> arrivals;
    const auto sweep = [&](std::vector<double>& finishes) {
      for (std::size_t p = 0; p < 6; ++p) {
        placer.receive_all_plans(T(3), P(p), plans);
        finishes[p] = placer.evaluate(T(3), P(p), plans, &arrivals).finish;
      }
    };
    std::vector<double> cold(6), warm(6);
    sweep(cold);
    const std::uint64_t before = ::test::t_allocations;
    sweep(warm);
    EXPECT_EQ(::test::t_allocations, before);
    EXPECT_EQ(warm, cold);
  }
}

TEST(Placer, RefilledPlansMatchFreshOnes) {
  // A buffer refilled for P1 after P0 holds exactly what a fresh buffer
  // gets for P1: the shorter co-located sender list does not leak.
  Fixture f;
  f.placer.commit(T(0), 0, P(0), {});
  f.placer.commit(T(0), 1, P(1), {});
  f.placer.commit(T(1), 0, P(1), {});
  f.placer.commit(T(1), 1, P(2), {});
  std::vector<IncomingPlan> reused;
  f.placer.receive_all_plans(T(2), P(0), reused);
  f.placer.receive_all_plans(T(2), P(2), reused);
  std::vector<IncomingPlan> fresh;
  f.placer.receive_all_plans(T(2), P(2), fresh);
  ASSERT_EQ(reused.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(reused[i].edge, fresh[i].edge);
    ASSERT_EQ(reused[i].senders.size(), fresh[i].senders.size());
    for (std::size_t k = 0; k < fresh[i].senders.size(); ++k) {
      EXPECT_EQ(reused[i].senders[k].ref.replica,
                fresh[i].senders[k].ref.replica);
      EXPECT_EQ(reused[i].senders[k].proc, fresh[i].senders[k].proc);
    }
  }
}

TEST(BestKSelector, TakeSortedRefillsTheCallersBuffer) {
  BestKSelector selector(2);
  std::vector<BestKSelector::Candidate> out;
  for (const double key : {3.0, 1.0, 2.0, 1.0})
    selector.offer(key, P(static_cast<std::size_t>(key * 2)));
  selector.take_sorted(out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].key, 1.0);
  EXPECT_EQ(out[1].key, 1.0);
  EXPECT_EQ(selector.size(), 0u);
  selector.offer(5.0, P(1));
  selector.take_sorted(out);  // a short sweep shrinks the buffer
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].proc, P(1));
}

/// The receive-from-all plan of `t` on `p` built the slow way: every
/// replica of every predecessor is scanned for a safe co-located copy,
/// with no host-mask shortcut.
std::vector<IncomingPlan> scanned_plans(const Schedule& schedule, TaskId t,
                                        ProcId p, const SupportMap* supports) {
  const TaskGraph& g = schedule.graph();
  const auto primaries = static_cast<ReplicaIndex>(schedule.primary_count());
  std::vector<IncomingPlan> plans;
  for (const EdgeIndex e : g.in_edges(t)) {
    const TaskId pred = g.edge(e).src;
    IncomingPlan plan;
    plan.edge = e;
    plan.volume = g.edge(e).volume;
    const auto total = static_cast<ReplicaIndex>(
        primaries + schedule.duplicates(pred).size());
    ReplicaIndex best = total;
    for (ReplicaIndex r = 0; r < total; ++r) {
      const ReplicaAssignment& a = schedule.replica(pred, r);
      const bool safe = supports == nullptr || r >= primaries ||
                        (supports->get(pred, r) & ~support_of(p)) == 0;
      if (a.proc != p || !safe) continue;
      if (best == total || a.finish < schedule.replica(pred, best).finish)
        best = r;
    }
    for (ReplicaIndex r = 0; r < total; ++r) {
      if (best == total ? r >= primaries : r != best) continue;
      const ReplicaAssignment& a = schedule.replica(pred, r);
      plan.senders.push_back({ReplicaRef{pred, r}, a.proc, a.finish});
    }
    plans.push_back(plan);
  }
  return plans;
}

/// FTBAR at Figure 3's shape (m = 20, ε = 5), on a clique and on a ring:
/// Minimize-Start-Time leaves duplicates, so predecessors are hosted on
/// several processors, some of them twice.
std::vector<std::pair<std::string, test::Scenario>> mst_scenarios() {
  const ExperimentConfig config = figure3();
  std::vector<std::pair<std::string, test::Scenario>> out;
  out.emplace_back("clique(20)", test::figure_setup(config, 1.0));
  out.emplace_back("ring(20)", test::topology_setup(config.seed,
                                                    Topology::ring(20), 1.0,
                                                    config.dag));
  return out;
}

TEST(Placer, HostMaskShortcutMatchesAFullReplicaScan) {
  for (const auto& [label, s] : mst_scenarios()) {
    SCOPED_TRACE(label);
    FtbarOptions options;
    options.base = SchedulerOptions{5, CommModelKind::kOnePort};
    Schedule schedule = ftbar_schedule(s.graph, *s.platform, *s.costs, options);
    std::size_t duplicates = 0;
    for (const TaskId t : s.graph.all_tasks())
      duplicates += schedule.duplicates(t).size();
    ASSERT_GT(duplicates, 0u) << "no MST duplicates to cover";

    // Supports that make some co-located primaries unsafe: each primary's
    // mask is its host, plus a second processor for one replica in three.
    SupportMap supports(s.graph.task_count(), schedule.primary_count());
    Rng rng(7);
    for (const TaskId t : s.graph.all_tasks())
      for (ReplicaIndex r = 0; r < schedule.primary_count(); ++r) {
        SupportMask mask = support_of(schedule.replica(t, r).proc);
        if (rng.uniform_int(0, 2) == 0)
          mask |= support_of(P(static_cast<std::size_t>(rng.uniform_int(0, 19))));
        supports.set(t, r, mask);
      }

    Schedule replayed(s.graph, *s.platform, 5, CommModelKind::kOnePort);
    OnePortEngine engine(*s.platform, *s.costs);
    const Placer placer(s.graph, *s.costs, engine, schedule);
    std::vector<IncomingPlan> plans;
    std::size_t colocated = 0;
    for (const TaskId t : s.graph.all_tasks())
      for (const ProcId p : s.platform->all_procs())
        for (const SupportMap* map : {static_cast<const SupportMap*>(nullptr),
                                      static_cast<const SupportMap*>(&supports)}) {
          placer.receive_all_plans(t, p, plans, map);
          const std::vector<IncomingPlan> want =
              scanned_plans(schedule, t, p, map);
          ASSERT_EQ(plans.size(), want.size());
          for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(plans[i].edge, want[i].edge);
            EXPECT_EQ(plans[i].volume, want[i].volume);
            ASSERT_EQ(plans[i].senders.size(), want[i].senders.size());
            colocated += want[i].senders.size() == 1 ? 1u : 0u;
            for (std::size_t k = 0; k < want[i].senders.size(); ++k) {
              EXPECT_EQ(plans[i].senders[k].ref.task, want[i].senders[k].ref.task);
              EXPECT_EQ(plans[i].senders[k].ref.replica,
                        want[i].senders[k].ref.replica);
              EXPECT_EQ(plans[i].senders[k].proc, want[i].senders[k].proc);
              EXPECT_EQ(plans[i].senders[k].data_ready,
                        want[i].senders[k].data_ready);
            }
          }
        }
    EXPECT_GT(colocated, 0u);

    // Replaying the placements into a fresh schedule, task by task with
    // the primaries in reverse order: after every step the counts, flags
    // and host mask agree with a scan of what was placed so far.
    for (const TaskId t : s.graph.all_tasks()) {
      std::vector<bool> placed(replayed.primary_count(), false);
      const auto check = [&] {
        std::size_t count = 0;
        std::uint64_t hosts = 0;
        for (ReplicaIndex r = 0; r < replayed.primary_count(); ++r) {
          EXPECT_EQ(replayed.has_replica(t, r), placed[r]);
          if (!placed[r]) continue;
          ++count;
          hosts |= Schedule::host_bit(replayed.replica(t, r).proc);
        }
        for (const ReplicaAssignment& a : replayed.duplicates(t))
          hosts |= Schedule::host_bit(a.proc);
        EXPECT_EQ(replayed.primaries_recorded(t), count);
        EXPECT_EQ(replayed.total_replicas(t),
                  count + replayed.duplicates(t).size());
        EXPECT_EQ(replayed.host_mask(t), hosts);
      };
      check();
      for (ReplicaIndex r = static_cast<ReplicaIndex>(replayed.primary_count());
           r-- > 0;) {
        replayed.set_replica(t, r, schedule.replica(t, r));
        placed[r] = true;
        check();
      }
      for (const ReplicaAssignment& a : schedule.duplicates(t)) {
        (void)replayed.add_duplicate(t, a);
        check();
      }
      EXPECT_EQ(replayed.host_mask(t), schedule.host_mask(t));
      EXPECT_EQ(replayed.total_replicas(t), schedule.total_replicas(t));
    }
  }

  // Past 64 processors a host sets every bit: a clear bit still means
  // "no replica there".
  const test::WideChain wide(72);
  for (const TaskId t : wide.graph.all_tasks())
    for (ReplicaIndex r = 0; r < 2; ++r)
      EXPECT_NE(wide.schedule.host_mask(t) &
                    Schedule::host_bit(wide.schedule.replica(t, r).proc),
                0u);
}

TEST(PlacementAllocations, SchedulersAllocatePerTaskNotPerComm) {
  // A ~100-task Figure 3 DAG at m = 20, ε = 5 commits thousands of
  // comms; scheduling it must allocate a bounded number of times per task
  // (per-task state, growth of the schedule's arrays), never once or more
  // per committed comm or per trial placement.
  const test::Scenario s = test::figure_setup(figure3(), 1.0);
  const SchedulerOptions base{5, CommModelKind::kOnePort};
  const auto measure = [&](const char* name, auto&& run) {
    SCOPED_TRACE(name);
    const std::uint64_t before = ::test::t_allocations;
    const Schedule schedule = run();
    const std::uint64_t allocations = ::test::t_allocations - before;
    const std::size_t tasks = s.graph.task_count();
    ASSERT_GE(tasks, 80u);
    ASSERT_GT(schedule.comms().size(), 20 * tasks);
    EXPECT_LE(allocations, 12 * tasks)
        << allocations << " allocations for " << tasks << " tasks and "
        << schedule.comms().size() << " comms";
  };
  measure("ftsa", [&] { return ftsa_schedule(s.graph, *s.platform, *s.costs, base); });
  measure("ftbar", [&] {
    FtbarOptions options;
    options.base = base;
    return ftbar_schedule(s.graph, *s.platform, *s.costs, options);
  });
  measure("caft", [&] {
    CaftOptions options;
    options.base = base;
    return caft_schedule(s.graph, *s.platform, *s.costs, options);
  });
}

TEST(MakeEngine, ProducesTheRightKinds) {
  const TaskGraph g = chain(2);
  const Platform platform(2);
  const CostModel costs = uniform_costs(g, platform, 1.0, 1.0);
  const auto one_port =
      make_engine(CommModelKind::kOnePort, platform, costs);
  const auto macro =
      make_engine(CommModelKind::kMacroDataflow, platform, costs);
  // Behavioural check: post two sends from the same processor; one-port
  // serializes, macro-dataflow does not.
  const CommTimes a1 = one_port->post_comm(P(0), P(1), 5.0, 0.0);
  const CommTimes a2 = one_port->post_comm(P(0), P(1), 5.0, 0.0);
  EXPECT_GE(a2.link_start, a1.link_finish);
  const CommTimes b1 = macro->post_comm(P(0), P(1), 5.0, 0.0);
  const CommTimes b2 = macro->post_comm(P(0), P(1), 5.0, 0.0);
  EXPECT_DOUBLE_EQ(b1.link_start, b2.link_start);
}

}  // namespace
}  // namespace caft
