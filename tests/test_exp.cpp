// Tests for the experiment harness (exp/config, exp/runner, exp/report).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "exp/config.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "pinned_figure_points.hpp"

namespace caft {
namespace {

/// A tiny configuration that runs in milliseconds.
ExperimentConfig tiny_config() {
  ExperimentConfig config = figure1();
  config.granularities = {0.4, 1.2};
  config.graphs_per_point = 2;
  config.dag.min_tasks = 20;
  config.dag.max_tasks = 30;
  return config;
}

TEST(ExpConfig, SweepsMatchPaper) {
  const auto a = granularity_sweep_a();
  ASSERT_EQ(a.size(), 10u);
  EXPECT_NEAR(a.front(), 0.2, 1e-12);
  EXPECT_NEAR(a.back(), 2.0, 1e-12);
  const auto b = granularity_sweep_b();
  ASSERT_EQ(b.size(), 10u);
  EXPECT_DOUBLE_EQ(b.front(), 1.0);
  EXPECT_DOUBLE_EQ(b.back(), 10.0);
}

TEST(ExpConfig, FigureConfigsMatchPaperPlatforms) {
  EXPECT_EQ(figure1().proc_count, 10u);
  EXPECT_EQ(figure1().eps, 1u);
  EXPECT_EQ(figure1().crashes, 1u);
  EXPECT_EQ(figure2().eps, 3u);
  EXPECT_EQ(figure2().crashes, 2u);
  EXPECT_EQ(figure3().proc_count, 20u);
  EXPECT_EQ(figure3().eps, 5u);
  EXPECT_EQ(figure3().crashes, 3u);
  EXPECT_EQ(figure4().eps, 1u);
  EXPECT_EQ(figure5().eps, 3u);
  EXPECT_EQ(figure6().proc_count, 20u);
  for (const auto& config : {figure1(), figure2(), figure3(), figure4(),
                             figure5(), figure6()})
    EXPECT_EQ(config.graphs_per_point, 60u);
}

TEST(ExpConfig, ScaledDown) {
  const ExperimentConfig config = scaled_down(figure1(), 10);
  EXPECT_EQ(config.graphs_per_point, 6u);
  EXPECT_EQ(scaled_down(figure1(), 1000).graphs_per_point, 1u);
}

TEST(ExpConfig, BenchRepsFromEnv) {
  unsetenv("CAFT_BENCH_REPS");
  EXPECT_EQ(bench_reps_from_env(12), 12u);
  setenv("CAFT_BENCH_REPS", "33", 1);
  EXPECT_EQ(bench_reps_from_env(12), 33u);
  setenv("CAFT_BENCH_REPS", "garbage", 1);
  EXPECT_EQ(bench_reps_from_env(12), 12u);
  unsetenv("CAFT_BENCH_REPS");
}

TEST(ExpRunner, ProducesOnePointPerGranularity) {
  const auto points = run_experiment(tiny_config());
  ASSERT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[0].granularity, 0.4);
  EXPECT_DOUBLE_EQ(points[1].granularity, 1.2);
}

TEST(ExpRunner, MetricsWellFormed) {
  const ExperimentConfig config = tiny_config();
  const auto points = run_experiment(config);
  for (const PointAverages& p : points) {
    // One keyed entry per configured algorithm, in config order.
    ASSERT_EQ(p.algos.size(), config.algorithms.size());
    for (std::size_t a = 0; a < config.algorithms.size(); ++a)
      EXPECT_EQ(p.algos[a].first, config.algorithms[a]);
    const AlgoAverages* ftsa = p.algo("ftsa");
    const AlgoAverages* ftbar = p.algo("ftbar");
    const AlgoAverages* caft = p.algo("caft");
    ASSERT_NE(ftsa, nullptr);
    ASSERT_NE(ftbar, nullptr);
    ASSERT_NE(caft, nullptr);
    EXPECT_EQ(p.algo("no-such-algo"), nullptr);
    // Latencies positive. Note: a replicated schedule may slightly beat the
    // fault-free baseline on the 0-crash latency — the earliest replica of
    // each task races, so extra copies add placement options.
    EXPECT_GT(p.ff_caft, 0.0);
    EXPECT_GT(ftsa->latency0, 0.0);
    EXPECT_GT(caft->latency0, 0.0);
    // Upper bounds dominate 0-crash latencies.
    EXPECT_GE(ftsa->latency_ub, ftsa->latency0 - 1e-9);
    EXPECT_GE(ftbar->latency_ub, ftbar->latency0 - 1e-9);
    EXPECT_GE(caft->latency_ub, caft->latency0 - 1e-9);
    // No crash run may lose results (c <= eps).
    EXPECT_EQ(p.crash_failures, 0u);
    // CAFT sends no more messages than FTSA.
    EXPECT_LE(caft->messages, ftsa->messages + 1e-9);
    // Overheads are bounded below (mild negative values possible: see the
    // racing note above).
    EXPECT_GE(ftsa->overhead0, -50.0);
    EXPECT_GE(caft->overhead0, -50.0);
  }
}

TEST(ExpRunner, DeterministicForFixedSeed) {
  const auto a = run_experiment(tiny_config());
  const auto b = run_experiment(tiny_config());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].algo("ftsa")->latency0, b[i].algo("ftsa")->latency0);
    EXPECT_DOUBLE_EQ(a[i].algo("caft")->latency_crash,
                     b[i].algo("caft")->latency_crash);
    EXPECT_DOUBLE_EQ(a[i].algo("ftbar")->messages,
                     b[i].algo("ftbar")->messages);
  }
}

TEST(ExpRunner, SeedChangesResults) {
  ExperimentConfig config = tiny_config();
  const auto a = run_experiment(config);
  config.seed += 1;
  const auto b = run_experiment(config);
  bool differs = false;
  for (std::size_t i = 0; i < a.size() && !differs; ++i)
    differs = a[i].algo("ftsa")->latency0 != b[i].algo("ftsa")->latency0;
  EXPECT_TRUE(differs);
}

TEST(ExpRunner, RejectsCrashesAboveEps) {
  ExperimentConfig config = tiny_config();
  config.crashes = config.eps + 1;
  EXPECT_THROW(run_experiment(config), CheckError);
}

TEST(ExpRunner, RejectsUnknownAlgorithm) {
  ExperimentConfig config = tiny_config();
  config.algorithms.push_back("no-such-algo");
  EXPECT_THROW(run_experiment(config), CheckError);
}

// Adding an algorithm to a figure is one registry name in the config —
// results and report panels pick it up without any struct change.
TEST(ExpRunner, FifthAlgorithmNeedsNoStructChange) {
  ExperimentConfig config = tiny_config();
  config.algorithms = {"ftsa", "ftbar", "caft", "caft-batch"};
  const auto points = run_experiment(config);
  for (const PointAverages& p : points) {
    ASSERT_EQ(p.algos.size(), 4u);
    const AlgoAverages* batch = p.algo("caft-batch");
    ASSERT_NE(batch, nullptr);
    EXPECT_GT(batch->latency0, 0.0);
    EXPECT_GE(batch->latency_ub, batch->latency0 - 1e-9);
  }
  const Table a = panel_a(config, points);
  EXPECT_EQ(a.header().size(), 11u);  // 1 + 4x2 + 2 baselines
  const Table b = panel_b(config, points);
  EXPECT_EQ(b.header().size(), 9u);
  EXPECT_EQ(b.header()[7], "CAFT-BATCH 0-crash");
}

/// One point as hexfloat text: granularity, both baselines, every
/// algorithm's seven averages, then the crash-failure count.
std::string render_point(const PointAverages& p) {
  std::string line;
  char buffer[32];
  const auto add = [&](double value) {
    std::snprintf(buffer, sizeof buffer, "%a ", value);
    line += buffer;
  };
  add(p.granularity);
  add(p.ff_caft);
  add(p.ff_ftbar);
  for (const auto& [name, a] : p.algos) {
    line += name + " ";
    for (const double value : {a.latency0, a.latency_ub, a.latency_crash,
                               a.overhead0, a.overhead_crash, a.messages,
                               a.messages_per_edge})
      add(value);
  }
  return line + std::to_string(p.crash_failures);
}

// The paper's six figures at two graphs per point, bit for bit: any change
// to the scheduler, the crash re-execution or the fold that moves one bit of
// the reproduction fails here. The literals live in pinned_figure_points.hpp.
TEST(ExpRunner, FigurePointsPinned) {
  std::vector<std::string> actual;
  for (ExperimentConfig config : {figure1(), figure2(), figure3(), figure4(),
                                  figure5(), figure6()}) {
    config.graphs_per_point = 2;
    for (const PointAverages& p : run_experiment(config))
      actual.push_back(config.name + " " + render_point(p));
  }
  const std::vector<std::string> expected(std::begin(kPinnedFigurePoints),
                                          std::end(kPinnedFigurePoints));
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i)
    EXPECT_EQ(actual[i], expected[i]) << "point " << i;
}

// Each point runs as (repetition, algorithm) and baseline jobs claimed by
// however many workers CAFT_THREADS allows; which worker runs which job
// must not move one bit of a point. Figure 3's (m = 20, ε = 5) and Figure
// 4's (m = 10, ε = 1) shapes, five graphs per point, at both ends of the
// sweep.
TEST(ExpRunner, ThreadCountInvariant) {
  const char* set = std::getenv("CAFT_THREADS");
  const std::optional<std::string> previous =
      set != nullptr ? std::optional<std::string>(set) : std::nullopt;
  std::vector<std::string> reference;
  for (const char* count : {"1", "3", "4"}) {
    setenv("CAFT_THREADS", count, 1);
    std::vector<std::string> actual;
    for (ExperimentConfig config : {figure3(), figure4()}) {
      config.graphs_per_point = 5;
      config.granularities = {config.granularities.front(),
                              config.granularities.back()};
      for (const PointAverages& p : run_experiment(config))
        actual.push_back(config.name + " " + render_point(p));
    }
    if (reference.empty())
      reference = actual;
    else
      EXPECT_EQ(actual, reference) << "CAFT_THREADS=" << count;
  }
  if (previous)
    setenv("CAFT_THREADS", previous->c_str(), 1);
  else
    unsetenv("CAFT_THREADS");
  EXPECT_EQ(reference.size(), 4u);
}

TEST(ExpReport, PanelsHaveExpectedShape) {
  const ExperimentConfig config = tiny_config();
  const auto points = run_experiment(config);
  const Table a = panel_a(config, points);
  EXPECT_EQ(a.row_count(), 2u);
  EXPECT_EQ(a.header().size(), 9u);
  const Table b = panel_b(config, points);
  EXPECT_EQ(b.header().size(), 7u);
  const Table c = panel_c(config, points);
  EXPECT_EQ(c.header().size(), 7u);
  const Table msgs = panel_messages(config, points);
  EXPECT_EQ(msgs.header().size(), 7u);
}

TEST(ExpReport, ReportPrintsAllPanels) {
  const ExperimentConfig config = tiny_config();
  const auto points = run_experiment(config);
  std::ostringstream os;
  report_figure(os, config, points);
  const std::string out = os.str();
  EXPECT_NE(out.find("fig1(a)"), std::string::npos);
  EXPECT_NE(out.find("fig1(b)"), std::string::npos);
  EXPECT_NE(out.find("fig1(c)"), std::string::npos);
  EXPECT_NE(out.find("messages"), std::string::npos);
  EXPECT_NE(out.find("crash re-executions with lost results: 0"),
            std::string::npos);
}

TEST(ExpReport, CsvFilesWritten) {
  const ExperimentConfig config = tiny_config();
  const auto points = run_experiment(config);
  std::ostringstream os;
  report_figure(os, config, points, "/tmp/caft_test_fig");
  std::ifstream in("/tmp/caft_test_fig_a.csv");
  EXPECT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("granularity"), std::string::npos);
}

}  // namespace
}  // namespace caft
