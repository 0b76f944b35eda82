// Tests for the weighted DAG structure (dag/task_graph).
#include "dag/task_graph.hpp"

#include <gtest/gtest.h>

namespace caft {
namespace {

TEST(TaskGraph, EmptyGraph) {
  const TaskGraph g;
  EXPECT_EQ(g.task_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_TRUE(g.is_acyclic());
  EXPECT_TRUE(g.entry_tasks().empty());
  EXPECT_TRUE(g.exit_tasks().empty());
  EXPECT_DOUBLE_EQ(g.total_volume(), 0.0);
}

TEST(TaskGraph, AddTasksAssignsSequentialIds) {
  TaskGraph g;
  const TaskId a = g.add_task();
  const TaskId b = g.add_task();
  EXPECT_EQ(a.value(), 0u);
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(g.task_count(), 2u);
}

TEST(TaskGraph, DefaultNamesFollowIds) {
  TaskGraph g;
  const TaskId a = g.add_task();
  const TaskId b = g.add_task("custom");
  EXPECT_EQ(g.name(a), "t0");
  EXPECT_EQ(g.name(b), "custom");
}

TEST(TaskGraph, EdgesAndDegrees) {
  TaskGraph g;
  const TaskId a = g.add_task();
  const TaskId b = g.add_task();
  const TaskId c = g.add_task();
  g.add_edge(a, b, 10.0);
  g.add_edge(a, c, 20.0);
  g.add_edge(b, c, 30.0);
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_EQ(g.out_degree(a), 2u);
  EXPECT_EQ(g.in_degree(a), 0u);
  EXPECT_EQ(g.in_degree(c), 2u);
  EXPECT_EQ(g.out_degree(c), 0u);
  EXPECT_DOUBLE_EQ(g.total_volume(), 60.0);
}

TEST(TaskGraph, InPositionIndexesTheTargetsInEdges) {
  TaskGraph g;
  const TaskId a = g.add_task();
  const TaskId b = g.add_task();
  const TaskId c = g.add_task();
  const TaskId d = g.add_task();
  g.add_edge(a, d, 1.0);
  g.add_edge(a, b, 1.0);
  g.add_edge(c, d, 1.0);
  g.add_edge(b, d, 1.0);
  g.add_edge(b, c, 1.0);
  for (EdgeIndex e = 0; e < g.edge_count(); ++e)
    EXPECT_EQ(g.in_edges(g.edge(e).dst)[g.in_position(e)], e) << "edge " << e;
  EXPECT_EQ(g.in_position(3), 2u);  // b -> d, d's third in-edge
  EXPECT_THROW((void)g.in_position(5), CheckError);
}

TEST(TaskGraph, HasEdgeAndVolume) {
  TaskGraph g;
  const TaskId a = g.add_task();
  const TaskId b = g.add_task();
  g.add_edge(a, b, 12.5);
  EXPECT_TRUE(g.has_edge(a, b));
  EXPECT_FALSE(g.has_edge(b, a));
  EXPECT_DOUBLE_EQ(g.volume(a, b), 12.5);
  EXPECT_THROW((void)g.volume(b, a), CheckError);
}

TEST(TaskGraph, RejectsSelfLoop) {
  TaskGraph g;
  const TaskId a = g.add_task();
  EXPECT_THROW(g.add_edge(a, a, 1.0), CheckError);
}

TEST(TaskGraph, RejectsDuplicateEdge) {
  TaskGraph g;
  const TaskId a = g.add_task();
  const TaskId b = g.add_task();
  g.add_edge(a, b, 1.0);
  EXPECT_THROW(g.add_edge(a, b, 2.0), CheckError);
}

TEST(TaskGraph, RejectsNegativeVolume) {
  TaskGraph g;
  const TaskId a = g.add_task();
  const TaskId b = g.add_task();
  EXPECT_THROW(g.add_edge(a, b, -1.0), CheckError);
}

TEST(TaskGraph, RejectsUnknownEndpoints) {
  TaskGraph g;
  const TaskId a = g.add_task();
  EXPECT_THROW(g.add_edge(a, TaskId(5), 1.0), CheckError);
}

TEST(TaskGraph, EntryAndExitTasks) {
  TaskGraph g;
  const TaskId a = g.add_task();
  const TaskId b = g.add_task();
  const TaskId c = g.add_task();
  g.add_edge(a, b, 1.0);
  g.add_edge(b, c, 1.0);
  const auto entries = g.entry_tasks();
  const auto exits = g.exit_tasks();
  ASSERT_EQ(entries.size(), 1u);
  ASSERT_EQ(exits.size(), 1u);
  EXPECT_EQ(entries[0], a);
  EXPECT_EQ(exits[0], c);
}

TEST(TaskGraph, IsolatedTaskIsEntryAndExit) {
  TaskGraph g;
  const TaskId lone = g.add_task();
  ASSERT_EQ(g.entry_tasks().size(), 1u);
  ASSERT_EQ(g.exit_tasks().size(), 1u);
  EXPECT_EQ(g.entry_tasks()[0], lone);
  EXPECT_EQ(g.exit_tasks()[0], lone);
}

TEST(TaskGraph, AcyclicOnDag) {
  TaskGraph g;
  const TaskId a = g.add_task();
  const TaskId b = g.add_task();
  const TaskId c = g.add_task();
  g.add_edge(a, b, 1.0);
  g.add_edge(a, c, 1.0);
  g.add_edge(b, c, 1.0);
  EXPECT_TRUE(g.is_acyclic());
}

TEST(TaskGraph, DetectsCycle) {
  TaskGraph g;
  const TaskId a = g.add_task();
  const TaskId b = g.add_task();
  const TaskId c = g.add_task();
  g.add_edge(a, b, 1.0);
  g.add_edge(b, c, 1.0);
  g.add_edge(c, a, 1.0);
  EXPECT_FALSE(g.is_acyclic());
}

TEST(TaskGraph, InOutEdgeSpansConsistent) {
  TaskGraph g;
  const TaskId a = g.add_task();
  const TaskId b = g.add_task();
  const TaskId c = g.add_task();
  g.add_edge(a, c, 5.0);
  g.add_edge(b, c, 7.0);
  double incoming = 0.0;
  for (const EdgeIndex e : g.in_edges(c)) incoming += g.edge(e).volume;
  EXPECT_DOUBLE_EQ(incoming, 12.0);
  for (const EdgeIndex e : g.out_edges(a)) EXPECT_EQ(g.edge(e).src, a);
}

TEST(TaskGraph, AllTasksEnumeratesEverything) {
  TaskGraph g(5);
  for (int i = 0; i < 5; ++i) g.add_task();
  const auto all = g.all_tasks();
  ASSERT_EQ(all.size(), 5u);
  for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i].index(), i);
}

TEST(TaskGraph, ZeroVolumeEdgeAllowed) {
  TaskGraph g;
  const TaskId a = g.add_task();
  const TaskId b = g.add_task();
  g.add_edge(a, b, 0.0);
  EXPECT_DOUBLE_EQ(g.volume(a, b), 0.0);
}

TEST(IdType, InvalidAndValid) {
  EXPECT_FALSE(TaskId().valid());
  EXPECT_FALSE(TaskId::invalid().valid());
  EXPECT_TRUE(TaskId(0).valid());
  EXPECT_LT(TaskId(1), TaskId(2));
}

TEST(IdType, DistinctTagsAreDistinctTypes) {
  // Compile-time property: TaskId and ProcId do not compare; this test
  // checks the runtime basics instead.
  EXPECT_EQ(ProcId(3).index(), 3u);
  EXPECT_EQ(LinkId(4).value(), 4u);
}

TEST(ReplicaRefType, Ordering) {
  const ReplicaRef a{TaskId(1), 0};
  const ReplicaRef b{TaskId(1), 1};
  const ReplicaRef c{TaskId(2), 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (ReplicaRef{TaskId(1), 0}));
}

}  // namespace
}  // namespace caft
