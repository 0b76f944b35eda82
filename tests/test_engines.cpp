// Tests for the communication engines (comm/macro_dataflow, comm/one_port):
// the contention-free model versus the paper's equations (1)-(6).
#include <gtest/gtest.h>

#include "algo/list_core.hpp"
#include "comm/macro_dataflow.hpp"
#include "comm/one_port.hpp"
#include "common/rng.hpp"
#include "counting_allocator.hpp"
#include "dag/generators.hpp"
#include "platform/cost_synthesis.hpp"

namespace caft {
namespace {

ProcId P(std::size_t i) { return ProcId(static_cast<ProcId::value_type>(i)); }

/// 3-processor clique, unit delays, 4 dummy tasks with exec 10.
struct Fixture {
  TaskGraph g = chain(4, 1.0);
  Platform platform{3};
  CostModel costs{4, platform};

  Fixture() {
    for (const TaskId t : g.all_tasks()) costs.set_exec_all(t, 10.0);
    costs.set_all_unit_delays(1.0);
  }
};

TEST(MacroDataflow, CommIgnoresContention) {
  Fixture f;
  MacroDataflowEngine engine(f.platform, f.costs);
  // Two messages from P0 at the same time: both depart immediately.
  const CommTimes a = engine.post_comm(P(0), P(1), 5.0, 100.0);
  const CommTimes b = engine.post_comm(P(0), P(2), 5.0, 100.0);
  EXPECT_DOUBLE_EQ(a.link_start, 100.0);
  EXPECT_DOUBLE_EQ(a.arrival, 105.0);
  EXPECT_DOUBLE_EQ(b.link_start, 100.0);
  EXPECT_DOUBLE_EQ(b.arrival, 105.0);
}

TEST(MacroDataflow, IntraProcessorFree) {
  Fixture f;
  MacroDataflowEngine engine(f.platform, f.costs);
  const CommTimes t = engine.post_comm(P(1), P(1), 42.0, 7.0);
  EXPECT_DOUBLE_EQ(t.arrival, 7.0);
}

TEST(MacroDataflow, PeekMatchesPost) {
  Fixture f;
  MacroDataflowEngine engine(f.platform, f.costs);
  const double peek = engine.peek_link_finish(P(0), P(2), 3.0, 11.0);
  const CommTimes t = engine.post_comm(P(0), P(2), 3.0, 11.0);
  EXPECT_DOUBLE_EQ(peek, t.link_finish);
}

TEST(OnePort, UncontendedCommMatchesW) {
  Fixture f;
  OnePortEngine engine(f.platform, f.costs);
  const CommTimes t = engine.post_comm(P(0), P(1), 5.0, 10.0);
  EXPECT_DOUBLE_EQ(t.link_start, 10.0);
  EXPECT_DOUBLE_EQ(t.link_finish, 15.0);
  EXPECT_DOUBLE_EQ(t.arrival, 15.0);  // cut-through: A = F when ports free
  EXPECT_DOUBLE_EQ(t.send_finish, 15.0);
  EXPECT_DOUBLE_EQ(t.recv_start, 10.0);
}

TEST(OnePort, SendingSerialized) {
  // Inequality (2): two emissions from P0 must not overlap.
  Fixture f;
  OnePortEngine engine(f.platform, f.costs);
  const CommTimes a = engine.post_comm(P(0), P(1), 5.0, 0.0);
  const CommTimes b = engine.post_comm(P(0), P(2), 5.0, 0.0);
  EXPECT_DOUBLE_EQ(a.link_start, 0.0);
  EXPECT_DOUBLE_EQ(b.link_start, 5.0);  // waits for SF(P0)
  EXPECT_DOUBLE_EQ(b.arrival, 10.0);
}

TEST(OnePort, ReceivingSerialized) {
  // Inequality (3): two receptions at P2 must not overlap.
  Fixture f;
  OnePortEngine engine(f.platform, f.costs);
  const CommTimes a = engine.post_comm(P(0), P(2), 5.0, 0.0);
  const CommTimes b = engine.post_comm(P(1), P(2), 5.0, 0.0);
  EXPECT_DOUBLE_EQ(a.arrival, 5.0);
  // b's wire is free (different sender and link) but reception waits RF(P2).
  EXPECT_DOUBLE_EQ(b.link_start, 0.0);
  EXPECT_DOUBLE_EQ(b.recv_start, 5.0);
  EXPECT_DOUBLE_EQ(b.arrival, 10.0);
}

TEST(OnePort, SendReceiveOverlapAllowed) {
  // Full-duplex: P1 can send while receiving.
  Fixture f;
  OnePortEngine engine(f.platform, f.costs);
  const CommTimes in = engine.post_comm(P(0), P(1), 10.0, 0.0);
  const CommTimes out = engine.post_comm(P(1), P(2), 10.0, 0.0);
  EXPECT_DOUBLE_EQ(in.arrival, 10.0);
  EXPECT_DOUBLE_EQ(out.link_start, 0.0);  // sending port independent
}

TEST(OnePort, DisjointPairsRunInParallel) {
  Fixture f;
  OnePortEngine engine(f.platform, f.costs);
  const CommTimes a = engine.post_comm(P(0), P(1), 8.0, 0.0);
  const CommTimes b = engine.post_comm(P(2), P(0), 8.0, 0.0);
  EXPECT_DOUBLE_EQ(a.link_start, 0.0);
  EXPECT_DOUBLE_EQ(b.link_start, 0.0);
  EXPECT_DOUBLE_EQ(a.arrival, 8.0);
  EXPECT_DOUBLE_EQ(b.arrival, 8.0);
}

TEST(OnePort, LinkExclusivitySameDirection) {
  // Inequality (1): two messages on the same directed link serialize.
  Fixture f;
  OnePortEngine engine(f.platform, f.costs);
  const CommTimes a = engine.post_comm(P(0), P(1), 5.0, 0.0);
  const CommTimes b = engine.post_comm(P(0), P(1), 5.0, 0.0);
  EXPECT_DOUBLE_EQ(a.link_finish, 5.0);
  EXPECT_DOUBLE_EQ(b.link_start, 5.0);
  EXPECT_DOUBLE_EQ(b.link_finish, 10.0);
}

TEST(OnePort, IntraProcessorFreeAndPortless) {
  Fixture f;
  OnePortEngine engine(f.platform, f.costs);
  std::vector<LinkOccupancy> hops;
  const CommTimes t = engine.post_comm(P(1), P(1), 42.0, 7.0, &hops);
  EXPECT_DOUBLE_EQ(t.arrival, 7.0);
  EXPECT_TRUE(hops.empty());
  // Ports untouched.
  EXPECT_DOUBLE_EQ(engine.sending_free(P(1)), 0.0);
  EXPECT_DOUBLE_EQ(engine.receiving_free(P(1)), 0.0);
}

TEST(OnePort, DataReadyDominates) {
  Fixture f;
  OnePortEngine engine(f.platform, f.costs);
  const CommTimes t = engine.post_comm(P(0), P(1), 2.0, 50.0);
  EXPECT_DOUBLE_EQ(t.link_start, 50.0);
  EXPECT_DOUBLE_EQ(t.arrival, 52.0);
}

TEST(OnePort, PeekMatchesPostLinkFinish) {
  Fixture f;
  OnePortEngine engine(f.platform, f.costs);
  engine.post_comm(P(0), P(1), 5.0, 0.0);  // occupy SF(P0) and the link
  const double peek = engine.peek_link_finish(P(0), P(1), 3.0, 0.0);
  const CommTimes t = engine.post_comm(P(0), P(1), 3.0, 0.0);
  EXPECT_DOUBLE_EQ(peek, t.link_finish);
  EXPECT_DOUBLE_EQ(peek, 8.0);
}

TEST(OnePort, PeekDoesNotMutate) {
  Fixture f;
  OnePortEngine engine(f.platform, f.costs);
  (void)engine.peek_link_finish(P(0), P(1), 5.0, 0.0);
  const CommTimes t = engine.post_comm(P(0), P(1), 5.0, 0.0);
  EXPECT_DOUBLE_EQ(t.link_start, 0.0);
}

/// Every clock an engine exposes, read through its public accessors.
std::vector<double> clocks(const CommEngine& engine) {
  std::vector<double> out;
  for (std::size_t p = 0; p < engine.proc_count(); ++p)
    out.push_back(engine.proc_ready(P(p)));
  if (const auto* one_port = dynamic_cast<const OnePortEngine*>(&engine)) {
    for (std::size_t p = 0; p < engine.proc_count(); ++p) {
      out.push_back(one_port->sending_free(P(p)));
      out.push_back(one_port->receiving_free(P(p)));
    }
    const std::size_t links = engine.platform().topology().link_count();
    for (std::size_t l = 0; l < links; ++l)
      out.push_back(
          one_port->link_ready(LinkId(static_cast<LinkId::value_type>(l))));
  }
  return out;
}

/// One random post_comm (70%) or post_exec (30%).
struct Op {
  bool exec;
  ProcId from, to;
  double amount, ready;
};

Op random_op(std::size_t m, Rng& rng) {
  Op op;
  op.exec = rng.uniform01() < 0.3;
  op.from = P(rng.uniform_int(0, m - 1));
  op.to = P(rng.uniform_int(0, m - 1));
  op.amount = rng.uniform(0.0, 10.0);
  op.ready = rng.uniform(0.0, 50.0);
  return op;
}

void apply(CommEngine& engine, const Op& op) {
  if (op.exec)
    engine.post_exec(op.from, op.ready, op.amount);
  else
    engine.post_comm(op.from, op.to, op.amount, op.ready);
}

/// Random trials in FTBAR's nesting shape (outer trial, writes, inner
/// trial, more writes) between committed writes: each closed trial leaves
/// every clock exactly as it was when the trial opened, and a twin engine
/// that sees only the committed writes always reads the same clocks.
void check_trials_roll_back(CommModelKind model, const Platform& platform,
                            std::uint64_t seed) {
  CostModel costs(1, platform);
  costs.set_all_unit_delays(1.0);
  const auto engine = make_engine(model, platform, costs);
  const auto twin = make_engine(model, platform, costs);
  const std::size_t m = platform.proc_count();
  Rng rng(seed);
  std::size_t trials_that_wrote = 0;
  for (int round = 0; round < 200; ++round) {
    const std::size_t committed = rng.uniform_int(0, 3);
    for (std::size_t i = 0; i < committed; ++i) {
      const Op op = random_op(m, rng);
      apply(*engine, op);
      apply(*twin, op);
    }
    const std::vector<double> before_outer = clocks(*engine);
    ASSERT_EQ(before_outer, clocks(*twin));
    {
      const CommEngine::Trial outer(*engine);
      for (std::uint64_t i = rng.uniform_int(0, 3); i > 0; --i)
        apply(*engine, random_op(m, rng));
      const std::vector<double> before_inner = clocks(*engine);
      {
        const CommEngine::Trial inner(*engine);
        for (std::uint64_t i = rng.uniform_int(0, 3); i > 0; --i)
          apply(*engine, random_op(m, rng));
      }
      ASSERT_EQ(clocks(*engine), before_inner);
      for (std::uint64_t i = rng.uniform_int(0, 3); i > 0; --i)
        apply(*engine, random_op(m, rng));
      if (clocks(*engine) != before_outer) ++trials_that_wrote;
    }
    ASSERT_EQ(clocks(*engine), before_outer);
  }
  EXPECT_GT(trials_that_wrote, 50u);  // the property is not vacuous
}

TEST(Trial, RollsBackExactlyOnCliqueAndRing) {
  for (const CommModelKind model :
       {CommModelKind::kOnePort, CommModelKind::kMacroDataflow}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      SCOPED_TRACE(testing::Message() << "model " << static_cast<int>(model)
                                      << " seed " << seed);
      check_trials_roll_back(model, Platform(5), seed);
      check_trials_roll_back(model, Platform(Topology::ring(6)), seed);
    }
  }
}

TEST(Engine, PostExecSerializesOnProcessor) {
  Fixture f;
  OnePortEngine engine(f.platform, f.costs);
  const TaskTimes a = engine.post_exec(P(0), 0.0, 10.0);
  const TaskTimes b = engine.post_exec(P(0), 0.0, 10.0);
  EXPECT_DOUBLE_EQ(a.start, 0.0);
  EXPECT_DOUBLE_EQ(a.finish, 10.0);
  EXPECT_DOUBLE_EQ(b.start, 10.0);
  EXPECT_DOUBLE_EQ(b.finish, 20.0);
}

TEST(Engine, PostExecHonoursEarliestStart) {
  Fixture f;
  OnePortEngine engine(f.platform, f.costs);
  const TaskTimes t = engine.post_exec(P(1), 33.0, 2.0);
  EXPECT_DOUBLE_EQ(t.start, 33.0);
}

TEST(Engine, RejectsForeignCostModel) {
  const TaskGraph g = chain(2);
  const Platform p1(2), p2(2);
  CostModel costs(g.task_count(), p1);
  EXPECT_THROW(OnePortEngine(p2, costs), CheckError);
}

TEST(OnePortSparse, MultiHopStoreAndForward) {
  // Star: leaf 1 -> hub 0 -> leaf 2; delays 1.0; volume 5.
  const TaskGraph g = chain(2, 1.0);
  const Platform platform(Topology::star(3));
  CostModel costs(g.task_count(), platform);
  costs.set_all_unit_delays(1.0);
  OnePortEngine engine(platform, costs);
  std::vector<LinkOccupancy> hops;
  const CommTimes t = engine.post_comm(P(1), P(2), 5.0, 0.0, &hops);
  ASSERT_EQ(hops.size(), 2u);
  EXPECT_DOUBLE_EQ(hops[0].start, 0.0);
  EXPECT_DOUBLE_EQ(hops[0].finish, 5.0);
  EXPECT_DOUBLE_EQ(hops[1].start, 5.0);  // store-and-forward at hub
  EXPECT_DOUBLE_EQ(hops[1].finish, 10.0);
  EXPECT_DOUBLE_EQ(t.arrival, 10.0);  // reception overlaps the last hop
}

TEST(OnePort, TrialPostAllocatesNothing) {
  // Leaf-to-leaf on a star crosses two links and ring(6)'s 0 -> 3 three:
  // inside a Trial the post journals its writes and is given no hop sink,
  // and the same post committed afterwards records every hop in its sink.
  for (const bool ring : {false, true}) {
    SCOPED_TRACE(ring ? "ring(6)" : "star(4)");
    const TaskGraph g = chain(2, 1.0);
    const Platform platform(ring ? Topology::ring(6) : Topology::star(4));
    CostModel costs(g.task_count(), platform);
    costs.set_all_unit_delays(1.0);
    OnePortEngine engine(platform, costs);
    const ProcId from = P(ring ? 0 : 1);
    const ProcId to = P(3);
    const std::size_t hops = platform.topology().route(from, to).size();
    ASSERT_GE(hops, 2u);
    {
      const CommEngine::Trial warm(engine);  // sizes the undo journal
      (void)engine.post_comm(from, to, 5.0, 0.0);
    }
    CommTimes trial_times;
    {
      const CommEngine::Trial trial(engine);
      const std::uint64_t before = ::test::t_allocations;
      trial_times = engine.post_comm(from, to, 5.0, 0.0);
      EXPECT_EQ(::test::t_allocations, before);
    }

    std::vector<LinkOccupancy> sink;
    const CommTimes committed = engine.post_comm(from, to, 5.0, 0.0, &sink);
    ASSERT_EQ(sink.size(), hops);
    EXPECT_EQ(committed.arrival, trial_times.arrival);
    EXPECT_EQ(committed.link_start, trial_times.link_start);
    EXPECT_EQ(committed.link_finish, trial_times.link_finish);
    EXPECT_EQ(sink.front().start, committed.link_start);
    EXPECT_EQ(sink.back().finish, committed.link_finish);
    for (std::size_t i = 0; i < hops; ++i)
      EXPECT_EQ(sink[i].link, platform.topology().route(from, to)[i]);
  }
}

TEST(OnePortSparse, SharedLinkContention) {
  // Both messages traverse link 1 -> 0 (hub): they serialize there.
  const TaskGraph g = chain(2, 1.0);
  const Platform platform(Topology::star(4));
  CostModel costs(g.task_count(), platform);
  costs.set_all_unit_delays(1.0);
  OnePortEngine engine(platform, costs);
  std::vector<LinkOccupancy> a_hops, b_hops;
  (void)engine.post_comm(P(1), P(2), 4.0, 0.0, &a_hops);
  (void)engine.post_comm(P(1), P(3), 4.0, 0.0, &b_hops);
  EXPECT_DOUBLE_EQ(a_hops[0].finish, 4.0);
  EXPECT_DOUBLE_EQ(b_hops[0].start, 4.0);  // sender port + shared first hop
}

/// Property sweep: posting any sequence keeps per-port invariants: the
/// engine's free times never decrease and arrival >= link start.
class OnePortPropertySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OnePortPropertySweep, MonotoneClocksAndSaneTimes) {
  Rng rng(GetParam());
  const TaskGraph g = chain(2, 1.0);
  const Platform platform(5);
  CostModel costs(g.task_count(), platform);
  costs.set_all_unit_delays(0.7);
  OnePortEngine engine(platform, costs);

  std::vector<double> sf(5, 0.0), rf(5, 0.0);
  for (int i = 0; i < 200; ++i) {
    const auto from = P(rng.uniform_int(0, 4));
    const auto to = P(rng.uniform_int(0, 4));
    const double volume = rng.uniform(0.0, 10.0);
    const double ready = rng.uniform(0.0, 50.0);
    const CommTimes t = engine.post_comm(from, to, volume, ready);
    EXPECT_GE(t.link_start, ready);
    EXPECT_GE(t.arrival, t.link_start);
    EXPECT_GE(t.link_finish, t.link_start);
    if (from != to) {
      EXPECT_GE(engine.sending_free(from), sf[from.index()]);
      EXPECT_GE(engine.receiving_free(to), rf[to.index()]);
      sf[from.index()] = engine.sending_free(from);
      rf[to.index()] = engine.receiving_free(to);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnePortPropertySweep,
                         ::testing::Values(1u, 7u, 42u, 1234u));

}  // namespace
}  // namespace caft
