// Tests for the fault-tolerant schedule container (sched/schedule) and the
// aggregate statistics (sched/bounds).
#include "sched/schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "dag/generators.hpp"
#include "sched/bounds.hpp"

namespace caft {
namespace {

ProcId P(std::size_t i) { return ProcId(static_cast<ProcId::value_type>(i)); }
TaskId T(std::size_t i) { return TaskId(static_cast<TaskId::value_type>(i)); }

/// chain(2) with eps = 1 on 3 processors.
struct Fixture {
  TaskGraph g = chain(2, 10.0);
  Platform platform{3};
  Schedule schedule{g, platform, 1, CommModelKind::kOnePort};
};

CommTimes times_at(double start, double finish) {
  CommTimes t;
  t.link_start = start;
  t.link_finish = finish;
  t.send_finish = finish;
  t.recv_start = start;
  t.arrival = finish;
  return t;
}

TEST(Schedule, ReplicaBookkeeping) {
  Fixture f;
  EXPECT_EQ(f.schedule.primary_count(), 2u);
  EXPECT_FALSE(f.schedule.complete());
  EXPECT_FALSE(f.schedule.has_replica(T(0), 0));
  f.schedule.set_replica(T(0), 0, {P(0), 0.0, 5.0});
  EXPECT_TRUE(f.schedule.has_replica(T(0), 0));
  EXPECT_EQ(f.schedule.primaries_recorded(T(0)), 1u);
  EXPECT_FALSE(f.schedule.complete());
  f.schedule.set_replica(T(0), 1, {P(1), 0.0, 5.0});
  f.schedule.set_replica(T(1), 0, {P(0), 5.0, 10.0});
  f.schedule.set_replica(T(1), 1, {P(2), 6.0, 11.0});
  EXPECT_TRUE(f.schedule.complete());
}

TEST(Schedule, RejectsDoublePlacement) {
  Fixture f;
  f.schedule.set_replica(T(0), 0, {P(0), 0.0, 5.0});
  EXPECT_THROW(f.schedule.set_replica(T(0), 0, {P(1), 0.0, 5.0}), CheckError);
}

TEST(Schedule, RejectsOutOfRangeReplica) {
  Fixture f;
  EXPECT_THROW(f.schedule.set_replica(T(0), 2, {P(0), 0.0, 5.0}), CheckError);
}

TEST(Schedule, RejectsBackwardTimes) {
  Fixture f;
  EXPECT_THROW(f.schedule.set_replica(T(0), 0, {P(0), 5.0, 3.0}), CheckError);
}

TEST(Schedule, NeedsEnoughProcessors) {
  TaskGraph g = chain(2);
  Platform tiny(1);
  EXPECT_THROW(Schedule(g, tiny, 1, CommModelKind::kOnePort), CheckError);
}

TEST(Schedule, LatencyIsMaxOverTasksOfFirstReplica) {
  Fixture f;
  f.schedule.set_replica(T(0), 0, {P(0), 0.0, 5.0});
  f.schedule.set_replica(T(0), 1, {P(1), 0.0, 6.0});
  f.schedule.set_replica(T(1), 0, {P(0), 5.0, 15.0});
  f.schedule.set_replica(T(1), 1, {P(2), 10.0, 25.0});
  // Task 0 first done at 5, task 1 first done at 15.
  EXPECT_DOUBLE_EQ(f.schedule.zero_crash_latency(), 15.0);
  // Upper bound takes the last replica: max(6, 25).
  EXPECT_DOUBLE_EQ(f.schedule.upper_bound_latency(), 25.0);
}

TEST(Schedule, IncompleteLatencyThrows) {
  Fixture f;
  EXPECT_THROW((void)f.schedule.zero_crash_latency(), CheckError);
}

TEST(Schedule, HorizonCoversReplicasAndArrivals) {
  Fixture f;
  f.schedule.set_replica(T(0), 0, {P(0), 0.0, 5.0});
  f.schedule.set_replica(T(0), 1, {P(1), 0.0, 6.0});
  f.schedule.set_replica(T(1), 0, {P(0), 5.0, 15.0});
  f.schedule.set_replica(T(1), 1, {P(2), 10.0, 25.0});
  EXPECT_DOUBLE_EQ(f.schedule.horizon(), 25.0);

  CommAssignment c;
  c.edge = 0;
  c.from = {T(0), 1};
  c.to = {T(1), 1};
  c.src_proc = P(1);
  c.dst_proc = P(2);
  c.volume = 1.0;
  c.times = times_at(6.0, 30.0);  // arrival after every replica finish
  f.schedule.add_comm(c);
  EXPECT_DOUBLE_EQ(f.schedule.horizon(), 30.0);
}

TEST(Schedule, HorizonIgnoresNonFiniteInstants) {
  // A "partially dead" schedule: some copies were reserved but never got a
  // finite timetable (+inf sentinels). Folding them into horizon() would
  // poison every crash-window range and snapshot bound derived from it.
  const double inf = std::numeric_limits<double>::infinity();
  Fixture f;
  f.schedule.set_replica(T(0), 0, {P(0), 0.0, 5.0});
  f.schedule.set_replica(T(0), 1, {P(1), 0.0, 6.0});
  f.schedule.set_replica(T(1), 0, {P(0), 5.0, 15.0});
  f.schedule.set_replica(T(1), 1, {P(2), 10.0, 25.0});

  // An unscheduled copy's message: committed but its arrival never timed.
  CommAssignment dead;
  dead.edge = 0;
  dead.from = {T(0), 0};
  dead.to = {T(1), 0};
  dead.src_proc = P(0);
  dead.dst_proc = P(2);
  dead.volume = 1.0;
  dead.times = times_at(5.0, inf);
  f.schedule.add_comm(dead);
  EXPECT_DOUBLE_EQ(f.schedule.horizon(), 25.0);

  // A duplicate reserved with an +inf finish (never patched to a real slot)
  // must not poison the replica fold either.
  f.schedule.add_duplicate(T(1), {P(1), 30.0, inf});
  EXPECT_DOUBLE_EQ(f.schedule.horizon(), 25.0);
  EXPECT_TRUE(std::isfinite(f.schedule.horizon()));
}

TEST(Schedule, CommRecordingAndLookup) {
  Fixture f;
  f.schedule.set_replica(T(0), 0, {P(0), 0.0, 5.0});
  f.schedule.set_replica(T(0), 1, {P(1), 0.0, 5.0});
  f.schedule.set_replica(T(1), 0, {P(2), 15.0, 25.0});
  f.schedule.set_replica(T(1), 1, {P(0), 5.0, 15.0});

  CommAssignment c;
  c.edge = 0;
  c.from = {T(0), 0};
  c.to = {T(1), 0};
  c.src_proc = P(0);
  c.dst_proc = P(2);
  c.volume = 10.0;
  c.times = times_at(5.0, 15.0);
  f.schedule.add_comm(c);

  const auto received = [&](TaskId t, ReplicaIndex r) {
    return std::count_if(f.schedule.comms().begin(), f.schedule.comms().end(),
                         [&](const CommAssignment& comm) {
                           return comm.to.task == t && comm.to.replica == r;
                         });
  };
  EXPECT_EQ(f.schedule.comms().size(), 1u);
  EXPECT_EQ(received(T(1), 0), 1);
  EXPECT_EQ(received(T(1), 1), 0);
  EXPECT_TRUE(f.schedule.hops(f.schedule.comms()[0]).empty());
  EXPECT_EQ(f.schedule.message_count(), 1u);
  EXPECT_DOUBLE_EQ(f.schedule.message_volume(), 10.0);
}

TEST(Schedule, IntraCommNotCountedAsMessage) {
  Fixture f;
  f.schedule.set_replica(T(0), 0, {P(0), 0.0, 5.0});
  f.schedule.set_replica(T(1), 0, {P(0), 5.0, 15.0});
  CommAssignment c;
  c.edge = 0;
  c.from = {T(0), 0};
  c.to = {T(1), 0};
  c.src_proc = P(0);
  c.dst_proc = P(0);
  c.volume = 10.0;
  c.times = times_at(5.0, 5.0);
  f.schedule.add_comm(c);
  EXPECT_TRUE(c.intra());
  EXPECT_EQ(f.schedule.message_count(), 0u);
  EXPECT_DOUBLE_EQ(f.schedule.message_volume(), 0.0);
}

TEST(Schedule, CommEndpointValidation) {
  Fixture f;
  f.schedule.set_replica(T(0), 0, {P(0), 0.0, 5.0});
  f.schedule.set_replica(T(1), 0, {P(1), 5.0, 15.0});
  CommAssignment c;
  c.edge = 0;
  c.from = {T(1), 0};  // wrong direction
  c.to = {T(0), 0};
  c.src_proc = P(1);
  c.dst_proc = P(0);
  EXPECT_THROW(f.schedule.add_comm(c), CheckError);
}

TEST(Schedule, DuplicatesExtendReplicaSet) {
  Fixture f;
  f.schedule.set_replica(T(0), 0, {P(0), 0.0, 5.0});
  f.schedule.set_replica(T(0), 1, {P(1), 0.0, 5.0});
  const ReplicaIndex dup = f.schedule.add_duplicate(T(0), {P(2), 1.0, 6.0});
  EXPECT_EQ(dup, 2u);
  EXPECT_EQ(f.schedule.total_replicas(T(0)), 3u);
  EXPECT_EQ(f.schedule.duplicates(T(0)).size(), 1u);
  EXPECT_EQ(f.schedule.replica(T(0), dup).proc, P(2));
}

TEST(Schedule, PatchDuplicate) {
  Fixture f;
  const ReplicaIndex dup = f.schedule.add_duplicate(T(0), {P(2), 0.0, 0.0});
  f.schedule.patch_duplicate(T(0), dup, {P(2), 3.0, 8.0});
  EXPECT_DOUBLE_EQ(f.schedule.replica(T(0), dup).start, 3.0);
  // A duplicate keeps its processor (the host mask counts it there).
  EXPECT_THROW(f.schedule.patch_duplicate(T(0), dup, {P(1), 3.0, 8.0}),
               CheckError);
  // Primaries cannot be patched.
  f.schedule.set_replica(T(0), 0, {P(0), 0.0, 5.0});
  EXPECT_THROW(f.schedule.patch_duplicate(T(0), 0, {P(0), 0.0, 5.0}),
               CheckError);
}

TEST(Schedule, DuplicateCountsTowardLatency) {
  Fixture f;
  f.schedule.set_replica(T(0), 0, {P(0), 0.0, 5.0});
  f.schedule.set_replica(T(0), 1, {P(1), 0.0, 7.0});
  f.schedule.set_replica(T(1), 0, {P(0), 5.0, 15.0});
  f.schedule.set_replica(T(1), 1, {P(2), 7.0, 17.0});
  f.schedule.add_duplicate(T(1), {P(1), 7.0, 9.0});
  // Duplicate of t1 finishes at 9 -> earliest copy of t1 done at 9.
  EXPECT_DOUBLE_EQ(f.schedule.zero_crash_latency(), 9.0);
  EXPECT_DOUBLE_EQ(f.schedule.upper_bound_latency(), 17.0);
}

TEST(ScheduleStats, AggregatesBusyTimeAndMessages) {
  Fixture f;
  f.schedule.set_replica(T(0), 0, {P(0), 0.0, 5.0});
  f.schedule.set_replica(T(0), 1, {P(1), 0.0, 5.0});
  f.schedule.set_replica(T(1), 0, {P(0), 5.0, 15.0});
  f.schedule.set_replica(T(1), 1, {P(1), 5.0, 15.0});
  CommAssignment c;
  c.edge = 0;
  c.from = {T(0), 0};
  c.to = {T(1), 1};
  c.src_proc = P(0);
  c.dst_proc = P(1);
  c.volume = 10.0;
  c.times = times_at(5.0, 15.0);
  f.schedule.add_comm(c);

  const ScheduleStats stats = schedule_stats(f.schedule);
  EXPECT_DOUBLE_EQ(stats.zero_crash_latency, 15.0);
  EXPECT_EQ(stats.inter_proc_messages, 1u);
  EXPECT_EQ(stats.intra_proc_handoffs, 0u);
  EXPECT_DOUBLE_EQ(stats.busy_time[0], 15.0);
  EXPECT_DOUBLE_EQ(stats.busy_time[1], 15.0);
  EXPECT_DOUBLE_EQ(stats.busy_time[2], 0.0);
  EXPECT_EQ(stats.procs_used, 2u);
  EXPECT_DOUBLE_EQ(stats.messages_per_edge, 1.0);
  EXPECT_NEAR(stats.mean_utilization, 1.0, 1e-12);
}

TEST(ScheduleStats, IncompleteRejected) {
  Fixture f;
  EXPECT_THROW(schedule_stats(f.schedule), CheckError);
}

}  // namespace
}  // namespace caft
