// Tests for the I/O layer: DOT export, Chrome-trace export and instance
// serialization round-trips (src/io).
#include <gtest/gtest.h>

#include <sstream>

#include "algo/caft.hpp"
#include "algo/ftbar.hpp"
#include "algo/ftsa.hpp"
#include "algo/heft.hpp"
#include "helpers.hpp"
#include "io/dot_export.hpp"
#include "io/instance_io.hpp"
#include "io/trace_export.hpp"
#include "sched/validator.hpp"
#include "sim/crash_sim.hpp"

namespace caft {
namespace {

using test::Scenario;
using test::random_setup;
using test::uniform_setup;

TEST(DotExport, GraphContainsAllNodesAndEdges) {
  const TaskGraph g = fork_join(3, 25.0);
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("digraph taskgraph"), std::string::npos);
  for (const TaskId t : g.all_tasks())
    EXPECT_NE(dot.find('"' + g.name(t) + '"'), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_NE(dot.find("25.0"), std::string::npos);  // edge volume label
}

TEST(DotExport, VolumeLabelsOptional) {
  const TaskGraph g = chain(3, 42.0);
  DotOptions options;
  options.show_volumes = false;
  EXPECT_EQ(to_dot(g, options).find("42.0"), std::string::npos);
}

TEST(DotExport, QuotesPunctuatedNames) {
  const TaskGraph g = cholesky(3, 1.0);  // names like "gemm(2,1,0)"
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("\"gemm(2,1,0)\""), std::string::npos);
}

TEST(DotExport, ScheduleHasClustersAndCommEdges) {
  Scenario s = random_setup(1, 6, 1.0);
  CaftOptions options;
  options.base = SchedulerOptions{1, CommModelKind::kOnePort};
  const Schedule sched = caft_schedule(s.graph, *s.platform, *s.costs, options);
  const std::string dot = to_dot(sched);
  EXPECT_NE(dot.find("subgraph cluster_P0"), std::string::npos);
  EXPECT_NE(dot.find("subgraph cluster_P5"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);  // inter-proc comm
  EXPECT_NE(dot.find("#0"), std::string::npos);            // replica suffix
  EXPECT_NE(dot.find("#1"), std::string::npos);
}

TEST(DotExport, DuplicatesHighlighted) {
  // FTBAR's MST duplicates get a distinct fill.
  Scenario s = uniform_setup(join(2, 100.0), 4, 10.0, 1.0);
  FtbarOptions options;
  options.base = SchedulerOptions{0, CommModelKind::kOnePort};
  const Schedule sched =
      ftbar_schedule(s.graph, *s.platform, *s.costs, options);
  std::size_t duplicates = 0;
  for (const TaskId t : s.graph.all_tasks())
    duplicates += sched.duplicates(t).size();
  ASSERT_GT(duplicates, 0u);
  EXPECT_NE(to_dot(sched).find("lightyellow"), std::string::npos);
}

TEST(TraceExport, WellFormedJsonWithAllReplicas) {
  Scenario s = random_setup(2, 6, 1.0);
  CaftOptions options;
  options.base = SchedulerOptions{1, CommModelKind::kOnePort};
  const Schedule sched = caft_schedule(s.graph, *s.platform, *s.costs, options);
  const std::string trace = to_chrome_trace(sched);
  EXPECT_EQ(trace.find("},{"), std::string::npos);  // one event per line
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"s\""), std::string::npos);  // flow start
  EXPECT_NE(trace.find("\"ph\":\"f\""), std::string::npos);  // flow finish
  // Rough balance check: braces match.
  const auto open = std::count(trace.begin(), trace.end(), '{');
  const auto close = std::count(trace.begin(), trace.end(), '}');
  EXPECT_EQ(open, close);
}

TEST(TraceExport, CrashTraceMarksCrashAndSkipsDeadWork) {
  Scenario s = uniform_setup(chain(3, 10.0), 3, 10.0, 1.0);
  const Schedule sched = ftsa_schedule(
      s.graph, *s.platform, *s.costs, SchedulerOptions{1, CommModelKind::kOnePort});
  const ProcId victim = sched.replica(TaskId(0), 0).proc;
  const CrashScenario scenario = CrashScenario::at_zero(3, {victim});
  const CrashResult result = simulate_crashes(sched, *s.costs, scenario);
  const std::string trace = to_chrome_trace(sched, result, scenario);
  EXPECT_NE(trace.find("CRASH"), std::string::npos);
  // No execution event on the dead processor's exec lane: its replicas are
  // incomplete. (The surviving replica names still appear.)
  EXPECT_NE(trace.find("t0#"), std::string::npos);
}

TEST(InstanceIo, GraphPlatformCostsRoundTrip) {
  Scenario s = random_setup(3, 5, 0.7);
  std::stringstream buffer;
  save_instance(buffer, s.graph, *s.platform, *s.costs);
  const InstanceBundle loaded = load_instance(buffer);

  ASSERT_EQ(loaded.graph->task_count(), s.graph.task_count());
  ASSERT_EQ(loaded.graph->edge_count(), s.graph.edge_count());
  for (const TaskId t : s.graph.all_tasks())
    EXPECT_EQ(loaded.graph->name(t), s.graph.name(t));
  for (std::size_t e = 0; e < s.graph.edge_count(); ++e) {
    EXPECT_EQ(loaded.graph->edge(static_cast<EdgeIndex>(e)).src,
              s.graph.edge(static_cast<EdgeIndex>(e)).src);
    EXPECT_DOUBLE_EQ(loaded.graph->edge(static_cast<EdgeIndex>(e)).volume,
                     s.graph.edge(static_cast<EdgeIndex>(e)).volume);
  }
  ASSERT_EQ(loaded.platform->proc_count(), 5u);
  for (const TaskId t : s.graph.all_tasks())
    for (const ProcId p : s.platform->all_procs())
      EXPECT_DOUBLE_EQ(loaded.costs->exec(t, p), s.costs->exec(t, p));
  EXPECT_DOUBLE_EQ(loaded.costs->granularity(*loaded.graph),
                   s.costs->granularity(s.graph));
  EXPECT_EQ(loaded.schedule, nullptr);
}

TEST(InstanceIo, ScheduleRoundTripPreservesEverything) {
  Scenario s = random_setup(4, 6, 1.0);
  CaftOptions options;
  options.base = SchedulerOptions{2, CommModelKind::kOnePort};
  const Schedule sched = caft_schedule(s.graph, *s.platform, *s.costs, options);

  std::stringstream buffer;
  save_instance(buffer, s.graph, *s.platform, *s.costs, &sched);
  const InstanceBundle loaded = load_instance(buffer);
  ASSERT_NE(loaded.schedule, nullptr);

  EXPECT_EQ(loaded.schedule->eps(), 2u);
  EXPECT_EQ(loaded.schedule->model(), CommModelKind::kOnePort);
  EXPECT_DOUBLE_EQ(loaded.schedule->zero_crash_latency(),
                   sched.zero_crash_latency());
  EXPECT_DOUBLE_EQ(loaded.schedule->upper_bound_latency(),
                   sched.upper_bound_latency());
  EXPECT_EQ(loaded.schedule->message_count(), sched.message_count());
  EXPECT_EQ(loaded.schedule->comms().size(), sched.comms().size());
  // The reloaded schedule passes the validator against the reloaded costs.
  const ValidationResult result =
      validate_schedule(*loaded.schedule, *loaded.costs);
  EXPECT_TRUE(result.ok()) << result.summary();
}

TEST(InstanceIo, SparseTopologyRoundTrip) {
  const TaskGraph g = chain(4, 50.0);
  const Platform platform(Topology::star(5));
  CostModel costs = uniform_costs(g, platform, 10.0, 0.5);
  std::stringstream buffer;
  save_instance(buffer, g, platform, costs);
  const InstanceBundle loaded = load_instance(buffer);
  EXPECT_FALSE(loaded.platform->topology().is_clique());
  EXPECT_EQ(loaded.platform->topology().link_count(), 8u);
  EXPECT_EQ(loaded.platform->topology().hop_count(ProcId(1), ProcId(4)), 2u);
  EXPECT_DOUBLE_EQ(loaded.costs->pair_delay(ProcId(1), ProcId(4)), 1.0);
}

TEST(InstanceIo, DuplicatesRoundTrip) {
  Scenario s = uniform_setup(join(2, 100.0), 4, 10.0, 1.0);
  FtbarOptions options;
  options.base = SchedulerOptions{0, CommModelKind::kOnePort};
  const Schedule sched =
      ftbar_schedule(s.graph, *s.platform, *s.costs, options);
  std::stringstream buffer;
  save_instance(buffer, s.graph, *s.platform, *s.costs, &sched);
  const InstanceBundle loaded = load_instance(buffer);
  ASSERT_NE(loaded.schedule, nullptr);
  std::size_t original = 0, reloaded = 0;
  for (const TaskId t : s.graph.all_tasks()) {
    original += sched.duplicates(t).size();
    reloaded += loaded.schedule->duplicates(t).size();
  }
  EXPECT_EQ(reloaded, original);
  EXPECT_GT(reloaded, 0u);
}

TEST(InstanceIo, RejectsGarbage) {
  std::stringstream buffer("not-an-instance at all");
  EXPECT_THROW(load_instance(buffer), CheckError);
}

TEST(InstanceIo, RejectsTruncated) {
  Scenario s = uniform_setup(chain(3, 10.0), 3, 10.0, 1.0);
  std::stringstream buffer;
  save_instance(buffer, s.graph, *s.platform, *s.costs);
  std::string text = buffer.str();
  text.resize(text.size() / 2);
  std::stringstream truncated(text);
  EXPECT_THROW(load_instance(truncated), CheckError);
}

TEST(InstanceIo, FileRoundTrip) {
  Scenario s = uniform_setup(chain(3, 10.0), 3, 10.0, 1.0);
  const std::string path = "/tmp/caft_test_instance.txt";
  save_instance_file(path, s.graph, *s.platform, *s.costs);
  const InstanceBundle loaded = load_instance_file(path);
  EXPECT_EQ(loaded.graph->task_count(), 3u);
  EXPECT_THROW(load_instance_file("/nonexistent/instance.txt"), CheckError);
}

TEST(InstanceIo, TaskNamesWithSpacesSurvive) {
  TaskGraph g;
  const TaskId a = g.add_task("stage one");
  const TaskId b = g.add_task("stage two");
  g.add_edge(a, b, 5.0);
  const Platform platform(2);
  const CostModel costs = uniform_costs(g, platform, 1.0, 1.0);
  std::stringstream buffer;
  save_instance(buffer, g, platform, costs);
  const InstanceBundle loaded = load_instance(buffer);
  EXPECT_EQ(loaded.graph->name(a), "stage one");
  EXPECT_EQ(loaded.graph->name(b), "stage two");
}

/// A one-task instance on an m-processor platform without cables.
std::string one_task_instance(std::size_t m) {
  std::string text = "caft-instance v1\ngraph 1 0\ntask 0 t0\nplatform " +
                     std::to_string(m) + " 0\n";
  for (std::size_t p = 0; p < m; ++p)
    text += "exec 0 " + std::to_string(p) + " 1\n";
  return text + "end\n";
}

TEST(InstanceIo, PlatformAboveTheProcessorCapIsRejectedAtItsLine) {
  std::stringstream at_cap(one_task_instance(kMaxProcessors));
  EXPECT_EQ(load_instance(at_cap).platform->proc_count(), kMaxProcessors);
  // The loader rejects m at the `platform` line, before the topology builds
  // its m x m route tables.
  std::stringstream above(one_task_instance(kMaxProcessors + 1));
  try {
    (void)load_instance(above);
    ADD_FAILURE() << "a 65-processor platform was loaded";
  } catch (const CheckError& error) {
    EXPECT_NE(std::string(error.what()).find("capped at 64 processors"),
              std::string::npos)
        << error.what();
  }
}

TEST(InstanceIo, DeclaredCountsAllocateNothingAheadOfTheContent) {
  // Each count is the file's claim, not a budget: a short file that
  // declares 2^40 tasks, cables or link segments fails on the content that
  // is missing, never on a reservation of the declared size.
  for (const char* text :
       {"caft-instance v1\ngraph 1099511627776 0\n",
        "caft-instance v1\ngraph 1 0\ntask 0 t0\n"
        "platform 2 1099511627776\n",
        "caft-instance v1\ngraph 2 1\ntask 0 a\ntask 1 b\nedge 0 1 1\n"
        "platform 1 0\nexec 0 0 1\nexec 1 0 1\nschedule 0 oneport 0\n"
        "replica 0 0 0 0 1\nreplica 1 0 0 1 2\n"
        "comm 0 0 0 0 0 1 1 1 1 1 1 1099511627776\n"}) {
    std::stringstream buffer(text);
    EXPECT_THROW((void)load_instance(buffer), CheckError) << text;
  }
}

}  // namespace
}  // namespace caft
