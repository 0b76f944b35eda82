// Tests for the schedule validator (sched/validator): it must accept
// schedules the algorithms emit and reject each class of violation.
#include "sched/validator.hpp"

#include <gtest/gtest.h>

#include "dag/generators.hpp"
#include "platform/cost_synthesis.hpp"

namespace caft {
namespace {

ProcId P(std::size_t i) { return ProcId(static_cast<ProcId::value_type>(i)); }
TaskId T(std::size_t i) { return TaskId(static_cast<TaskId::value_type>(i)); }

CommTimes wire(double start, double finish) {
  CommTimes t;
  t.link_start = start;
  t.link_finish = finish;
  t.send_finish = finish;
  t.recv_start = start;
  t.arrival = finish;
  return t;
}

/// Hand-built valid schedule: chain(2), eps=1, exec 10, delay 1, volume 10.
/// t0 on P0/P1 at [0,10]; t1 on P0 (intra, [10,20]) and P1 (intra, [10,20]).
struct ValidFixture {
  TaskGraph g = chain(2, 10.0);
  Platform platform{3};
  CostModel costs = uniform_costs(g, platform, 10.0, 1.0);
  Schedule schedule{g, platform, 1, CommModelKind::kOnePort};

  ValidFixture() {
    schedule.set_replica(T(0), 0, {P(0), 0.0, 10.0});
    schedule.set_replica(T(0), 1, {P(1), 0.0, 10.0});
    schedule.set_replica(T(1), 0, {P(0), 10.0, 20.0});
    schedule.set_replica(T(1), 1, {P(1), 10.0, 20.0});
    add_intra(0, 0, 0);  // t0#0 -> t1#0 on P0
    add_intra(1, 1, 1);  // t0#1 -> t1#1 on P1
  }

  void add_intra(ReplicaIndex from, ReplicaIndex to, std::size_t proc) {
    CommAssignment c;
    c.edge = 0;
    c.from = {T(0), from};
    c.to = {T(1), to};
    c.src_proc = P(proc);
    c.dst_proc = P(proc);
    c.volume = 10.0;
    CommTimes t;
    t.link_start = t.link_finish = 10.0;
    t.send_finish = t.recv_start = t.arrival = 10.0;
    c.times = t;
    schedule.add_comm(c);
  }
};

TEST(Validator, AcceptsValidSchedule) {
  ValidFixture f;
  const ValidationResult result = validate_schedule(f.schedule, f.costs);
  EXPECT_TRUE(result.ok()) << result.summary();
}

TEST(Validator, ReportsIncomplete) {
  ValidFixture f;
  Schedule partial(f.g, f.platform, 1, CommModelKind::kOnePort);
  const ValidationResult result = validate_schedule(partial, f.costs);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.summary().find("incomplete"), std::string::npos);
}

TEST(Validator, DetectsSharedProcessorReplicas) {
  ValidFixture f;
  Schedule bad(f.g, f.platform, 1, CommModelKind::kOnePort);
  bad.set_replica(T(0), 0, {P(0), 0.0, 10.0});
  bad.set_replica(T(0), 1, {P(0), 10.0, 20.0});  // same processor!
  bad.set_replica(T(1), 0, {P(1), 20.0, 30.0});
  bad.set_replica(T(1), 1, {P(2), 20.0, 30.0});
  const ValidationResult result = validate_schedule(bad, f.costs);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.summary().find("share processor"), std::string::npos);
}

TEST(Validator, DetectsWrongDuration) {
  ValidFixture f;
  Schedule bad(f.g, f.platform, 1, CommModelKind::kOnePort);
  bad.set_replica(T(0), 0, {P(0), 0.0, 7.0});  // should take 10
  bad.set_replica(T(0), 1, {P(1), 0.0, 10.0});
  bad.set_replica(T(1), 0, {P(0), 10.0, 20.0});
  bad.set_replica(T(1), 1, {P(1), 10.0, 20.0});
  const ValidationResult result = validate_schedule(bad, f.costs);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.summary().find("duration"), std::string::npos);
}

TEST(Validator, DetectsOverlapOnProcessor) {
  // Two tasks overlapping on P0.
  TaskGraph g;
  g.add_task();
  g.add_task();  // independent tasks
  Platform platform(3);
  CostModel costs = uniform_costs(g, platform, 10.0, 1.0);
  Schedule bad(g, platform, 0, CommModelKind::kOnePort);
  bad.set_replica(T(0), 0, {P(0), 0.0, 10.0});
  bad.set_replica(T(1), 0, {P(0), 5.0, 15.0});  // overlaps
  const ValidationResult result = validate_schedule(bad, costs);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.summary().find("overlaps"), std::string::npos);
}

TEST(Validator, DetectsMissingInput) {
  ValidFixture f;
  Schedule bad(f.g, f.platform, 1, CommModelKind::kOnePort);
  bad.set_replica(T(0), 0, {P(0), 0.0, 10.0});
  bad.set_replica(T(0), 1, {P(1), 0.0, 10.0});
  bad.set_replica(T(1), 0, {P(0), 10.0, 20.0});
  bad.set_replica(T(1), 1, {P(2), 10.0, 20.0});  // no comm feeds it
  const ValidationResult result = validate_schedule(bad, f.costs);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.summary().find("no input"), std::string::npos);
}

TEST(Validator, DetectsLateArrival) {
  ValidFixture f;
  Schedule bad(f.g, f.platform, 1, CommModelKind::kOnePort);
  bad.set_replica(T(0), 0, {P(0), 0.0, 10.0});
  bad.set_replica(T(0), 1, {P(1), 0.0, 10.0});
  bad.set_replica(T(1), 0, {P(2), 12.0, 22.0});
  bad.set_replica(T(1), 1, {P(1), 10.0, 20.0});
  // Comm arrives at 25 but the consumer starts at 12.
  CommAssignment c;
  c.edge = 0;
  c.from = {T(0), 0};
  c.to = {T(1), 0};
  c.src_proc = P(0);
  c.dst_proc = P(2);
  c.volume = 10.0;
  c.times = wire(10.0, 25.0);
  bad.add_comm(c);
  // Feed replica 1 properly (intra).
  CommAssignment intra;
  intra.edge = 0;
  intra.from = {T(0), 1};
  intra.to = {T(1), 1};
  intra.src_proc = P(1);
  intra.dst_proc = P(1);
  intra.volume = 10.0;
  intra.times = wire(10.0, 10.0);
  bad.add_comm(intra);
  const ValidationResult result = validate_schedule(bad, f.costs);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.summary().find("no input"), std::string::npos);
}

TEST(Validator, DetectsCommBeforeSourceFinish) {
  ValidFixture f;
  Schedule bad(f.g, f.platform, 1, CommModelKind::kOnePort);
  bad.set_replica(T(0), 0, {P(0), 0.0, 10.0});
  bad.set_replica(T(0), 1, {P(1), 0.0, 10.0});
  bad.set_replica(T(1), 0, {P(2), 15.0, 25.0});
  bad.set_replica(T(1), 1, {P(1), 10.0, 20.0});
  CommAssignment c;
  c.edge = 0;
  c.from = {T(0), 0};
  c.to = {T(1), 0};
  c.src_proc = P(0);
  c.dst_proc = P(2);
  c.volume = 10.0;
  c.times = wire(5.0, 15.0);  // leaves at 5 but source finishes at 10
  bad.add_comm(c);
  CommAssignment intra;
  intra.edge = 0;
  intra.from = {T(0), 1};
  intra.to = {T(1), 1};
  intra.src_proc = P(1);
  intra.dst_proc = P(1);
  intra.volume = 10.0;
  intra.times = wire(10.0, 10.0);
  bad.add_comm(intra);
  const ValidationResult result = validate_schedule(bad, f.costs);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.summary().find("before its source"), std::string::npos);
}

TEST(Validator, DetectsVolumeMismatch) {
  ValidFixture f;
  Schedule bad(f.g, f.platform, 1, CommModelKind::kOnePort);
  bad.set_replica(T(0), 0, {P(0), 0.0, 10.0});
  bad.set_replica(T(0), 1, {P(1), 0.0, 10.0});
  bad.set_replica(T(1), 0, {P(0), 10.0, 20.0});
  bad.set_replica(T(1), 1, {P(1), 10.0, 20.0});
  CommAssignment c;
  c.edge = 0;
  c.from = {T(0), 0};
  c.to = {T(1), 0};
  c.src_proc = P(0);
  c.dst_proc = P(0);
  c.volume = 99.0;  // edge volume is 10
  c.times = wire(10.0, 10.0);
  bad.add_comm(c);
  CommAssignment intra;
  intra.edge = 0;
  intra.from = {T(0), 1};
  intra.to = {T(1), 1};
  intra.src_proc = P(1);
  intra.dst_proc = P(1);
  intra.volume = 10.0;
  intra.times = wire(10.0, 10.0);
  bad.add_comm(intra);
  const ValidationResult result = validate_schedule(bad, f.costs);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.summary().find("volume"), std::string::npos);
}

TEST(Validator, DetectsSendPortOverlap) {
  // Two simultaneous emissions from P0 (violates inequality (2)).
  TaskGraph g;
  const TaskId a = g.add_task();
  const TaskId b = g.add_task();
  const TaskId c = g.add_task();
  g.add_edge(a, b, 10.0);
  g.add_edge(a, c, 10.0);
  Platform platform(4);
  CostModel costs = uniform_costs(g, platform, 10.0, 1.0);
  Schedule bad(g, platform, 0, CommModelKind::kOnePort);
  bad.set_replica(T(0), 0, {P(0), 0.0, 10.0});
  bad.set_replica(T(1), 0, {P(1), 20.0, 30.0});
  bad.set_replica(T(2), 0, {P(2), 20.0, 30.0});
  for (std::size_t dst = 1; dst <= 2; ++dst) {
    CommAssignment cm;
    cm.edge = static_cast<EdgeIndex>(dst - 1);
    cm.from = {T(0), 0};
    cm.to = {T(dst), 0};
    cm.src_proc = P(0);
    cm.dst_proc = P(dst);
    cm.volume = 10.0;
    cm.times = wire(10.0, 20.0);  // both hold the send port [10, 20]
    const LinkOccupancy hop{platform.topology().direct_link(P(0), P(dst)),
                            10.0, 20.0};
    bad.add_comm(cm, {&hop, 1});
  }
  const ValidationResult result = validate_schedule(bad, costs);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.summary().find("send port"), std::string::npos);
}

TEST(Validator, MacroDataflowSkipsPortChecks) {
  // The same overlapping emissions are fine under macro-dataflow.
  TaskGraph g;
  const TaskId a = g.add_task();
  const TaskId b = g.add_task();
  const TaskId c = g.add_task();
  g.add_edge(a, b, 10.0);
  g.add_edge(a, c, 10.0);
  Platform platform(4);
  CostModel costs = uniform_costs(g, platform, 10.0, 1.0);
  Schedule ok(g, platform, 0, CommModelKind::kMacroDataflow);
  ok.set_replica(T(0), 0, {P(0), 0.0, 10.0});
  ok.set_replica(T(1), 0, {P(1), 20.0, 30.0});
  ok.set_replica(T(2), 0, {P(2), 20.0, 30.0});
  for (std::size_t dst = 1; dst <= 2; ++dst) {
    CommAssignment cm;
    cm.edge = static_cast<EdgeIndex>(dst - 1);
    cm.from = {T(0), 0};
    cm.to = {T(dst), 0};
    cm.src_proc = P(0);
    cm.dst_proc = P(dst);
    cm.volume = 10.0;
    cm.times = wire(10.0, 20.0);
    ok.add_comm(cm);
  }
  const ValidationResult result = validate_schedule(ok, costs);
  EXPECT_TRUE(result.ok()) << result.summary();
}

TEST(Validator, DetectsLinkOverlap) {
  // Two messages on the same directed link at the same time.
  TaskGraph g;
  const TaskId a = g.add_task();
  const TaskId b = g.add_task();
  const TaskId c = g.add_task();
  const TaskId d = g.add_task();
  g.add_edge(a, c, 10.0);
  g.add_edge(b, d, 10.0);
  Platform platform(4);
  CostModel costs = uniform_costs(g, platform, 10.0, 1.0);
  Schedule bad(g, platform, 0, CommModelKind::kOnePort);
  bad.set_replica(T(0), 0, {P(0), 0.0, 10.0});
  bad.set_replica(T(1), 0, {P(1), 0.0, 10.0});
  bad.set_replica(T(2), 0, {P(2), 20.0, 30.0});
  bad.set_replica(T(3), 0, {P(2), 30.0, 40.0});
  const LinkId shared = platform.topology().direct_link(P(0), P(2));
  // First message legitimately on link P0->P2.
  CommAssignment c1;
  c1.edge = 0;
  c1.from = {T(0), 0};
  c1.to = {T(2), 0};
  c1.src_proc = P(0);
  c1.dst_proc = P(2);
  c1.volume = 10.0;
  c1.times = wire(10.0, 20.0);
  const LinkOccupancy hop{shared, 10.0, 20.0};
  bad.add_comm(c1, {&hop, 1});
  // Second message *claims* the same link interval (src_proc P1 lies, but
  // the validator checks segments independently).
  CommAssignment c2;
  c2.edge = 1;
  c2.from = {T(1), 0};
  c2.to = {T(3), 0};
  c2.src_proc = P(1);
  c2.dst_proc = P(2);
  c2.volume = 10.0;
  c2.times = wire(10.0, 20.0);
  c2.times.recv_start = 20.0;
  c2.times.arrival = 30.0;
  bad.add_comm(c2, {&hop, 1});
  const ValidationResult result = validate_schedule(bad, costs);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.summary().find("link"), std::string::npos);
}

TEST(Validator, DuplicatesAreChecked) {
  ValidFixture f;
  // A duplicate with a wrong duration must be flagged.
  f.schedule.add_duplicate(T(0), {P(2), 0.0, 3.0});  // should take 10
  const ValidationResult result = validate_schedule(f.schedule, f.costs);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.summary().find("duration"), std::string::npos);
}

TEST(Validator, ToleranceAbsorbsFloatNoise) {
  ValidFixture f;
  Schedule nearly(f.g, f.platform, 1, CommModelKind::kOnePort);
  nearly.set_replica(T(0), 0, {P(0), 0.0, 10.0 + 1e-9});
  nearly.set_replica(T(0), 1, {P(1), 0.0, 10.0});
  nearly.set_replica(T(1), 0, {P(0), 10.0 + 1e-9, 20.0 + 1e-9});
  nearly.set_replica(T(1), 1, {P(1), 10.0, 20.0});
  CommAssignment c;
  c.edge = 0;
  c.from = {T(0), 0};
  c.to = {T(1), 0};
  c.src_proc = P(0);
  c.dst_proc = P(0);
  c.volume = 10.0;
  c.times = wire(10.0 + 1e-9, 10.0 + 1e-9);
  nearly.add_comm(c);
  CommAssignment intra;
  intra.edge = 0;
  intra.from = {T(0), 1};
  intra.to = {T(1), 1};
  intra.src_proc = P(1);
  intra.dst_proc = P(1);
  intra.volume = 10.0;
  intra.times = wire(10.0, 10.0);
  nearly.add_comm(intra);
  EXPECT_TRUE(validate_schedule(nearly, f.costs).ok());
}

}  // namespace
}  // namespace caft
