// Cross-module integration and property tests: the paper's qualitative
// claims checked end-to-end on the real pipeline (schedule -> validate ->
// re-execute -> measure), plus sparse-topology runs of the Section 7
// extension.
#include <gtest/gtest.h>

#include "algo/caft.hpp"
#include "algo/caft_batch.hpp"
#include "algo/ftbar.hpp"
#include "algo/ftsa.hpp"
#include "algo/heft.hpp"
#include "helpers.hpp"
#include "metrics/metrics.hpp"
#include "sched/bounds.hpp"
#include "sched/validator.hpp"
#include "sim/resilience.hpp"

namespace caft {
namespace {

using test::Scenario;
using test::random_setup;

/// Mean over paired random instances of alg latency (0 crash, one-port).
struct PairedRun {
  double caft = 0.0;
  double ftsa = 0.0;
  double ftbar = 0.0;
  double caft_msgs = 0.0;
  double ftsa_msgs = 0.0;
};

PairedRun run_paired(std::size_t eps, double granularity, int repetitions) {
  PairedRun acc;
  for (int rep = 0; rep < repetitions; ++rep) {
    Scenario s = random_setup(1000 + static_cast<std::uint64_t>(rep), 10,
                              granularity);
    const SchedulerOptions options{eps, CommModelKind::kOnePort};
    CaftOptions caft_options;
    caft_options.base = options;
    FtbarOptions ftbar_options;
    ftbar_options.base = options;
    const Schedule caft =
        caft_schedule(s.graph, *s.platform, *s.costs, caft_options);
    const Schedule ftsa = ftsa_schedule(s.graph, *s.platform, *s.costs, options);
    const Schedule ftbar =
        ftbar_schedule(s.graph, *s.platform, *s.costs, ftbar_options);
    acc.caft += normalized_latency(caft.zero_crash_latency(), s.graph, *s.costs);
    acc.ftsa += normalized_latency(ftsa.zero_crash_latency(), s.graph, *s.costs);
    acc.ftbar +=
        normalized_latency(ftbar.zero_crash_latency(), s.graph, *s.costs);
    acc.caft_msgs += static_cast<double>(caft.message_count());
    acc.ftsa_msgs += static_cast<double>(ftsa.message_count());
  }
  const double n = repetitions;
  acc.caft /= n;
  acc.ftsa /= n;
  acc.ftbar /= n;
  acc.caft_msgs /= n;
  acc.ftsa_msgs /= n;
  return acc;
}

TEST(PaperClaims, CaftBeatsFtsaAndFtbarOnAverage) {
  // The paper's headline (Figures 1-6(a)): CAFT's 0-crash latency is below
  // FTSA's and FTBAR's under the one-port model.
  const PairedRun run = run_paired(/*eps=*/2, /*granularity=*/0.5, 6);
  EXPECT_LT(run.caft, run.ftsa);
  EXPECT_LT(run.caft, run.ftbar);
}

TEST(PaperClaims, MessageScalingLinearVsQuadratic) {
  // The quadratic-vs-linear signature (Section 6): normalized by the
  // paper's linear budget e(ε+1), FTSA's message count grows with ε (its
  // scaling is ~e(ε+1)², damped by the intra-processor rule) while CAFT
  // stays at or below ~1.5x the linear budget, and below FTSA at every ε.
  std::vector<double> ftsa_norm, caft_norm;
  for (const std::size_t eps : {1u, 2u, 3u}) {
    double caft_msgs = 0.0, ftsa_msgs = 0.0, linear = 0.0;
    for (int rep = 0; rep < 4; ++rep) {
      Scenario s = random_setup(1000 + static_cast<std::uint64_t>(rep), 10, 0.5);
      const SchedulerOptions options{eps, CommModelKind::kOnePort};
      CaftOptions caft_options;
      caft_options.base = options;
      const Schedule caft =
          caft_schedule(s.graph, *s.platform, *s.costs, caft_options);
      const Schedule ftsa =
          ftsa_schedule(s.graph, *s.platform, *s.costs, options);
      caft_msgs += static_cast<double>(caft.message_count());
      ftsa_msgs += static_cast<double>(ftsa.message_count());
      linear += static_cast<double>(s.graph.edge_count() * (eps + 1));
    }
    EXPECT_LT(caft_msgs, ftsa_msgs) << "eps " << eps;
    ftsa_norm.push_back(ftsa_msgs / linear);
    caft_norm.push_back(caft_msgs / linear);
  }
  // FTSA drifts away from the linear budget as ε grows...
  EXPECT_GT(ftsa_norm[1], ftsa_norm[0]);
  EXPECT_GT(ftsa_norm[2], ftsa_norm[1]);
  EXPECT_GT(ftsa_norm[2], 1.5);
  // ...while CAFT stays pinned near it.
  for (const double norm : caft_norm) EXPECT_LT(norm, 1.55);
}

TEST(PaperClaims, ContentionMattersMoreAtFineGranularity) {
  // Figures 4-6: the CAFT/FTSA gap shrinks as granularity grows
  // (communication stops dominating).
  const PairedRun fine = run_paired(1, 0.2, 5);
  const PairedRun coarse = run_paired(1, 8.0, 5);
  const double gap_fine = fine.ftsa / fine.caft;
  const double gap_coarse = coarse.ftsa / coarse.caft;
  EXPECT_GT(gap_fine, gap_coarse);
}

TEST(Pipeline, FullStackOnSparseTopologies) {
  // Section 7 extension: the whole stack runs on non-clique interconnects.
  // Fixed routing makes intermediate routers genuine single points of
  // failure (the crash replay models this honestly), so ε-resistance is
  // only guaranteed against crashes of processors that route no committed
  // traffic — the structural checks and that guarded crash are asserted.
  Rng rng(42);
  RandomDagParams dp;
  dp.min_tasks = 25;
  dp.max_tasks = 35;
  const TaskGraph g = random_dag(dp, rng);
  for (int topo = 0; topo < 3; ++topo) {
    Platform platform(topo == 0   ? Topology::ring(8)
                      : topo == 1 ? Topology::star(8)
                                  : Topology::mesh(2, 4));
    CostSynthesisParams cp;
    cp.granularity = 1.0;
    Rng local(7);
    const CostModel costs = synthesize_costs(g, platform, cp, local);
    CaftOptions options;
    options.base = SchedulerOptions{1, CommModelKind::kOnePort};
    options.support_mode = CaftSupportMode::kTransitive;
    const Schedule sched = caft_schedule(g, platform, costs, options);
    const ValidationResult validation = validate_schedule(sched, costs);
    EXPECT_TRUE(validation.ok()) << "topo " << topo << ": "
                                 << validation.summary();

    // Processors that appear as intermediate routers of committed traffic.
    std::vector<bool> routes_traffic(platform.proc_count(), false);
    for (const CommAssignment& c : sched.comms())
      for (const LinkOccupancy& seg : sched.hops(c)) {
        const LinkDef& def = platform.topology().link(seg.link);
        if (def.from != c.src_proc) routes_traffic[def.from.index()] = true;
        if (def.to != c.dst_proc) routes_traffic[def.to.index()] = true;
      }
    for (const ProcId p : platform.all_procs()) {
      if (routes_traffic[p.index()]) continue;
      const CrashResult result = simulate_crashes(
          sched, costs, CrashScenario::at_zero(platform.proc_count(), {p}));
      EXPECT_TRUE(result.success)
          << "topo " << topo << ": non-router P" << p.value()
          << " crash lost results";
    }
  }
}

TEST(Pipeline, StarHubIsAnHonestSinglePointOfFailure) {
  // Killing the hub of a star cuts every cross-leaf route: messages that
  // would transit it are never delivered — the physical reality fixed
  // routing cannot mask.
  Rng rng(43);
  RandomDagParams dp;
  dp.min_tasks = 25;
  dp.max_tasks = 35;
  const TaskGraph g = random_dag(dp, rng);
  Platform platform(Topology::star(8));
  CostSynthesisParams cp;
  cp.granularity = 1.0;
  Rng local(11);
  const CostModel costs = synthesize_costs(g, platform, cp, local);
  CaftOptions options;
  options.base = SchedulerOptions{1, CommModelKind::kOnePort};
  const Schedule sched = caft_schedule(g, platform, costs, options);

  std::size_t cross_leaf = 0;
  for (const CommAssignment& c : sched.comms())
    if (sched.hops(c).size() > 1) ++cross_leaf;
  ASSERT_GT(cross_leaf, 0u);  // the schedule does use hub transit

  const CrashResult none =
      simulate_crashes(sched, costs, CrashScenario::none(8));
  const CrashResult hub_dead = simulate_crashes(
      sched, costs, CrashScenario::at_zero(8, {ProcId(0)}));
  EXPECT_LT(hub_dead.delivered_messages, none.delivered_messages);
}

TEST(Pipeline, UtilizationSaneAcrossAlgorithms) {
  Scenario s = random_setup(5, 10, 1.0);
  const SchedulerOptions options{2, CommModelKind::kOnePort};
  CaftOptions caft_options;
  caft_options.base = options;
  const Schedule sched =
      caft_schedule(s.graph, *s.platform, *s.costs, caft_options);
  const ScheduleStats stats = schedule_stats(sched);
  EXPECT_GT(stats.procs_used, 0u);
  EXPECT_LE(stats.procs_used, 10u);
  EXPECT_GT(stats.mean_utilization, 0.0);
  EXPECT_LE(stats.mean_utilization, 1.0 + 1e-9);
}

TEST(Pipeline, CrashLatencyBoundedByAdversarialWorst) {
  // Any single random crash draw lies within [best, worst] of the
  // exhaustive sweep.
  Scenario s = random_setup(6, 8, 0.8);
  const SchedulerOptions options{1, CommModelKind::kOnePort};
  const Schedule sched = ftsa_schedule(s.graph, *s.platform, *s.costs, options);
  const ResilienceReport report =
      check_resilience_exhaustive(sched, *s.costs, 1);
  ASSERT_TRUE(report.resistant);
  Rng rng(9);
  for (int draw = 0; draw < 5; ++draw) {
    const CrashResult result = simulate_random_crashes(sched, *s.costs, 1, rng);
    ASSERT_TRUE(result.success);
    EXPECT_GE(result.latency, report.best_latency - 1e-9);
    EXPECT_LE(result.latency, report.worst_latency + 1e-9);
  }
}

TEST(Pipeline, BatchingKeepsMessageDiscipline) {
  // CAFT-B inherits the one-to-one machinery: message counts stay in the
  // same regime as sequential CAFT (well below FTSA).
  Scenario s = random_setup(7, 10, 0.5);
  const SchedulerOptions options{2, CommModelKind::kOnePort};
  CaftBatchOptions batch_options;
  batch_options.caft.base = options;
  batch_options.batch_size = 8;
  const Schedule batched =
      caft_batch_schedule(s.graph, *s.platform, *s.costs, batch_options);
  const Schedule ftsa = ftsa_schedule(s.graph, *s.platform, *s.costs, options);
  EXPECT_LT(batched.message_count(), ftsa.message_count());
}

/// End-to-end property: for every algorithm, on every seed, the one-port
/// schedule validates AND its crash replay with no failures reproduces the
/// committed latency AND eps failures never lose results.
class EndToEnd : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EndToEnd, AllAlgorithmsAllChecks) {
  RandomDagParams dp;
  dp.min_tasks = 20;
  dp.max_tasks = 30;
  Scenario s = random_setup(GetParam(), 6, 1.0, dp);
  const std::size_t eps = 1;
  const SchedulerOptions options{eps, CommModelKind::kOnePort};

  std::vector<Schedule> schedules;
  schedules.push_back(ftsa_schedule(s.graph, *s.platform, *s.costs, options));
  FtbarOptions ftbar_options;
  ftbar_options.base = options;
  schedules.push_back(
      ftbar_schedule(s.graph, *s.platform, *s.costs, ftbar_options));
  CaftOptions caft_options;
  caft_options.base = options;
  caft_options.support_mode = CaftSupportMode::kTransitive;
  schedules.push_back(
      caft_schedule(s.graph, *s.platform, *s.costs, caft_options));

  for (const Schedule& sched : schedules) {
    const ValidationResult validation = validate_schedule(sched, *s.costs);
    EXPECT_TRUE(validation.ok()) << validation.summary();
    const CrashResult clean = simulate_crashes(
        sched, *s.costs, CrashScenario::none(6));
    ASSERT_TRUE(clean.success);
    EXPECT_EQ(clean.order_relaxations, 0u);
    EXPECT_NEAR(clean.latency, sched.zero_crash_latency(), 1e-6);
    const ResilienceReport report =
        check_resilience_exhaustive(sched, *s.costs, eps);
    EXPECT_TRUE(report.resistant)
        << report.failures << "/" << report.scenarios_tested;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EndToEnd,
                         ::testing::Values(101u, 102u, 103u, 104u, 105u, 106u));

}  // namespace
}  // namespace caft
