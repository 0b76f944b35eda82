// Tests for ε-failure resistance (sim/resilience): Proposition 5.2 checked
// exhaustively for all three fault-tolerant schedulers.
#include "sim/resilience.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "algo/caft.hpp"
#include "algo/caft_batch.hpp"
#include "algo/ftbar.hpp"
#include "algo/ftsa.hpp"
#include "algo/heft.hpp"
#include "helpers.hpp"

namespace caft {
namespace {

using test::Scenario;
using test::graph_setup;
using test::random_setup;
using test::uniform_setup;

RandomDagParams small_dag() {
  RandomDagParams params;
  params.min_tasks = 25;
  params.max_tasks = 40;
  return params;
}

TEST(Resilience, HeftFailsUnderAnyUsedProcessorCrash) {
  Scenario s = uniform_setup(chain(4, 10.0), 3, 10.0, 1.0);
  const Schedule sched =
      heft_schedule(s.graph, *s.platform, *s.costs, CommModelKind::kOnePort);
  const ResilienceReport report =
      check_resilience_exhaustive(sched, *s.costs, 1);
  EXPECT_FALSE(report.resistant);
  EXPECT_FALSE(report.witness.empty());
  EXPECT_EQ(report.scenarios_tested, 3u);
}

TEST(Resilience, ZeroFailuresAlwaysResistant) {
  Scenario s = random_setup(1, 8, 1.0, small_dag());
  const Schedule sched =
      heft_schedule(s.graph, *s.platform, *s.costs, CommModelKind::kOnePort);
  const ResilienceReport report =
      check_resilience_exhaustive(sched, *s.costs, 0);
  EXPECT_TRUE(report.resistant);
  EXPECT_EQ(report.scenarios_tested, 1u);
}

TEST(Resilience, WorstLatencyAtLeastBest) {
  Scenario s = random_setup(2, 8, 1.0, small_dag());
  const Schedule sched = ftsa_schedule(
      s.graph, *s.platform, *s.costs, SchedulerOptions{1, CommModelKind::kOnePort});
  const ResilienceReport report =
      check_resilience_exhaustive(sched, *s.costs, 1);
  ASSERT_TRUE(report.resistant);
  EXPECT_GE(report.worst_latency, report.best_latency);
  EXPECT_GE(report.best_latency, 0.0);
}

TEST(Resilience, SampledAgreesWithExhaustiveOnResistantSchedule) {
  Scenario s = random_setup(3, 8, 1.0, small_dag());
  const Schedule sched = ftsa_schedule(
      s.graph, *s.platform, *s.costs, SchedulerOptions{2, CommModelKind::kOnePort});
  Rng rng(7);
  const ResilienceReport sampled =
      check_resilience_sampled(sched, *s.costs, 2, 40, rng);
  EXPECT_TRUE(sampled.resistant);
  EXPECT_EQ(sampled.scenarios_tested, 40u);
}

TEST(Resilience, SimulateRandomCrashesRespectsCount) {
  Scenario s = random_setup(4, 8, 1.0, small_dag());
  const Schedule sched = ftsa_schedule(
      s.graph, *s.platform, *s.costs, SchedulerOptions{2, CommModelKind::kOnePort});
  Rng rng(11);
  const CrashResult result = simulate_random_crashes(sched, *s.costs, 2, rng);
  EXPECT_TRUE(result.success);
}

/// Calls `visit` on every crash set of `k` out of `m` processors, in the
/// lexicographic order check_resilience_exhaustive walks.
template <typename Visit>
void for_each_crash_set(std::size_t m, std::size_t k, std::size_t first,
                        std::vector<ProcId>& set, Visit&& visit) {
  if (set.size() == k) {
    visit(set);
    return;
  }
  for (std::size_t p = first; p + (k - set.size()) <= m; ++p) {
    set.push_back(ProcId(static_cast<ProcId::value_type>(p)));
    for_each_crash_set(m, k, p + 1, set, visit);
    set.pop_back();
  }
}

/// The exhaustive report rebuilt from one simulate_crashes call per crash
/// set: the reference the engine-backed sweep must reproduce exactly.
ResilienceReport naive_exhaustive(const Schedule& sched,
                                  const CostModel& costs,
                                  std::size_t failures) {
  const std::size_t m = sched.platform().proc_count();
  ResilienceReport report;
  report.best_latency = std::numeric_limits<double>::infinity();
  std::vector<ProcId> set;
  for_each_crash_set(m, failures, 0, set, [&](const std::vector<ProcId>& f) {
    const CrashResult result =
        simulate_crashes(sched, costs, CrashScenario::at_zero(m, f));
    ++report.scenarios_tested;
    if (!result.success) {
      ++report.failures;
      report.resistant = false;
      if (report.witness.empty()) report.witness = f;
    } else {
      report.worst_latency = std::max(report.worst_latency, result.latency);
      report.best_latency = std::min(report.best_latency, result.latency);
    }
  });
  if (report.best_latency == std::numeric_limits<double>::infinity())
    report.best_latency = 0.0;
  return report;
}

TEST(Resilience, ExhaustiveReportMatchesNaiveReplayLoop) {
  // Every f <= ε, plus f = ε + 1, where breaking crash sets exist and the
  // witnesses (the first breaking set in walk order) are compared too.
  std::size_t failing_reports = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Scenario s = random_setup(seed, 8, 0.8, small_dag());
    for (std::size_t eps = 1; eps <= 2; ++eps) {
      const SchedulerOptions base{eps, CommModelKind::kOnePort};
      CaftOptions caft;
      caft.base = base;
      FtbarOptions ftbar;
      ftbar.base = base;
      const std::vector<std::pair<const char*, Schedule>> schedules = {
          {"caft", caft_schedule(s.graph, *s.platform, *s.costs, caft)},
          {"ftsa", ftsa_schedule(s.graph, *s.platform, *s.costs, base)},
          {"ftbar", ftbar_schedule(s.graph, *s.platform, *s.costs, ftbar)}};
      for (const auto& [algo, sched] : schedules) {
        for (std::size_t f = 0; f <= eps + 1; ++f) {
          SCOPED_TRACE(std::string(algo) + " seed " + std::to_string(seed) +
                       " eps " + std::to_string(eps) + " f " +
                       std::to_string(f));
          const ResilienceReport naive = naive_exhaustive(sched, *s.costs, f);
          const ResilienceReport report =
              check_resilience_exhaustive(sched, *s.costs, f);
          EXPECT_EQ(report.resistant, naive.resistant);
          EXPECT_EQ(report.scenarios_tested, naive.scenarios_tested);
          EXPECT_EQ(report.failures, naive.failures);
          EXPECT_EQ(report.witness, naive.witness);
          EXPECT_EQ(report.worst_latency, naive.worst_latency);
          EXPECT_EQ(report.best_latency, naive.best_latency);
          if (!naive.resistant) ++failing_reports;
        }
      }
    }
  }
  EXPECT_GT(failing_reports, 0u);
}

/// The core guarantee (Proposition 5.2): exhaustive ε-subset survival for
/// each fault-tolerant algorithm across seeds and ε.
class Proposition52
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {};

TEST_P(Proposition52, FtsaResistsEpsFailures) {
  const auto [seed, eps] = GetParam();
  Scenario s = random_setup(seed, 8, 0.8, small_dag());
  const Schedule sched = ftsa_schedule(
      s.graph, *s.platform, *s.costs, SchedulerOptions{eps, CommModelKind::kOnePort});
  const ResilienceReport report =
      check_resilience_exhaustive(sched, *s.costs, eps);
  EXPECT_TRUE(report.resistant)
      << report.failures << "/" << report.scenarios_tested << " failed";
}

TEST_P(Proposition52, FtbarResistsEpsFailures) {
  const auto [seed, eps] = GetParam();
  Scenario s = random_setup(seed, 8, 0.8, small_dag());
  FtbarOptions options;
  options.base = SchedulerOptions{eps, CommModelKind::kOnePort};
  const Schedule sched = ftbar_schedule(s.graph, *s.platform, *s.costs, options);
  const ResilienceReport report =
      check_resilience_exhaustive(sched, *s.costs, eps);
  EXPECT_TRUE(report.resistant)
      << report.failures << "/" << report.scenarios_tested << " failed";
}

TEST_P(Proposition52, CaftResistsEpsFailures) {
  // The guarantee is carried by the kTransitive support mode; the default
  // kDirect mode reproduces the paper (including its blind spot, measured
  // by CaftDirectMode.* below).
  const auto [seed, eps] = GetParam();
  Scenario s = random_setup(seed, 8, 0.8, small_dag());
  CaftOptions options;
  options.base = SchedulerOptions{eps, CommModelKind::kOnePort};
  options.support_mode = CaftSupportMode::kTransitive;
  const Schedule sched = caft_schedule(s.graph, *s.platform, *s.costs, options);
  const ResilienceReport report =
      check_resilience_exhaustive(sched, *s.costs, eps);
  EXPECT_TRUE(report.resistant)
      << report.failures << "/" << report.scenarios_tested << " failed";
}

TEST_P(Proposition52, CaftBatchResistsEpsFailures) {
  const auto [seed, eps] = GetParam();
  Scenario s = random_setup(seed, 8, 0.8, small_dag());
  CaftBatchOptions options;
  options.caft.base = SchedulerOptions{eps, CommModelKind::kOnePort};
  options.caft.support_mode = CaftSupportMode::kTransitive;
  options.batch_size = 4;
  const Schedule sched =
      caft_batch_schedule(s.graph, *s.platform, *s.costs, options);
  const ResilienceReport report =
      check_resilience_exhaustive(sched, *s.costs, eps);
  EXPECT_TRUE(report.resistant)
      << report.failures << "/" << report.scenarios_tested << " failed";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Proposition52,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u),
                       ::testing::Values(1u, 2u, 3u)));

/// CAFT resistance on the graph families where one-to-one is most active.
class CaftFamilyResilience : public ::testing::TestWithParam<int> {};

TEST_P(CaftFamilyResilience, ResistsTwoFailures) {
  // kTransitive carries the guarantee on every family.
  TaskGraph g;
  switch (GetParam()) {
    case 0: g = fork(8, 100.0); break;
    case 1: g = join(8, 100.0); break;
    case 2: {
      Rng rng(5);
      g = random_out_forest(25, 2, rng);
      break;
    }
    case 3: g = gaussian_elimination(4, 100.0); break;
    default: g = diamond(6, 100.0); break;
  }
  Scenario s =
      graph_setup(std::move(g), 80u + static_cast<std::uint64_t>(GetParam()),
                  8, 0.8);
  CaftOptions options;
  options.base = SchedulerOptions{2, CommModelKind::kOnePort};
  options.support_mode = CaftSupportMode::kTransitive;
  const Schedule sched = caft_schedule(s.graph, *s.platform, *s.costs, options);
  const ResilienceReport report =
      check_resilience_exhaustive(sched, *s.costs, 2);
  EXPECT_TRUE(report.resistant)
      << report.failures << "/" << report.scenarios_tested << " failed";
}

INSTANTIATE_TEST_SUITE_P(Families, CaftFamilyResilience,
                         ::testing::Values(0, 1, 2, 3, 4));

/// The paper-faithful kDirect locking (equation (7) taken literally) is
/// NOT ε-resistant at realistic scale: one-to-one chains entangle
/// transitively, and with 80-120 tasks some task almost surely loses every
/// replica under an unlucky crash set. The default kTransitive mode closes
/// exactly that hole. Both facts are pinned here — this is the central
/// robustness finding of the reproduction (see docs/architecture.md,
/// "Modelling decisions").
TEST(CaftDirectMode, DirectLockingBreaksWhereTransitiveHolds) {
  std::size_t direct_failing = 0;
  std::size_t transitive_failing = 0;
  std::size_t direct_msgs = 0, transitive_msgs = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Scenario s = random_setup(seed, 8, 0.8, small_dag());
    CaftOptions direct;
    direct.base = SchedulerOptions{2, CommModelKind::kOnePort};
    direct.support_mode = CaftSupportMode::kDirect;
    CaftOptions transitive = direct;
    transitive.support_mode = CaftSupportMode::kTransitive;
    const Schedule d = caft_schedule(s.graph, *s.platform, *s.costs, direct);
    const Schedule t = caft_schedule(s.graph, *s.platform, *s.costs, transitive);
    direct_failing += check_resilience_exhaustive(d, *s.costs, 2).failures;
    transitive_failing += check_resilience_exhaustive(t, *s.costs, 2).failures;
    direct_msgs += d.message_count();
    transitive_msgs += t.message_count();
  }
  // The direct rule leaves breaking crash sets; the transitive rule leaves
  // none. The price of the guarantee is a bounded message increase.
  EXPECT_GT(direct_failing, 0u);
  EXPECT_EQ(transitive_failing, 0u);
  EXPECT_LE(direct_msgs, transitive_msgs);
}

}  // namespace
}  // namespace caft
