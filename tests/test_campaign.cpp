// Tests for the Monte-Carlo fault-injection campaign (campaign/): scenario
// samplers, streaming statistics (Wilson interval, P² quantiles), and the
// parallel executor — its identity with the simulate_crashes oracle
// (test::oracle_campaign), its record cache and θ-quantization, its
// determinism, the Proposition 5.2 guarantee, and the one engine
// configuration it shares with the campaign server's template cache.
#include "campaign/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "algo/caft.hpp"
#include "algo/ftsa.hpp"
#include "api/instance.hpp"
#include "campaign/scenario_sampler.hpp"
#include "campaign/stats.hpp"
#include "counting_allocator.hpp"
#include "dag/generators.hpp"
#include "helpers.hpp"
#include "obs/obs.hpp"
#include "server/content_cache.hpp"
#include "sim/crash_sim.hpp"
#include "sim/replay_engine.hpp"

namespace caft {
namespace {

using test::Scenario;
using test::expect_summaries_identical;
using test::oracle_campaign;
using test::random_setup;

Schedule caft_for(const Scenario& s, std::size_t eps) {
  CaftOptions options;
  options.base = SchedulerOptions{eps, CommModelKind::kOnePort};
  return caft_schedule(s.graph, *s.platform, *s.costs, options);
}

// ---------------------------------------------------------------- samplers

TEST(ScenarioSamplers, UniformKFailsExactlyK) {
  const UniformKSampler sampler(10, 3);
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const CrashScenario scenario = sampler.sample(rng);
    EXPECT_EQ(scenario.proc_count(), 10u);
    EXPECT_EQ(scenario.failed_count(), 3u);
    for (std::size_t p = 0; p < 10; ++p) {
      const double t = scenario.crash_time(ProcId(p));
      EXPECT_TRUE(t == 0.0 || std::isinf(t));  // dead at 0 or never
    }
  }
}

TEST(ScenarioSamplers, UniformKCoversAllProcessors) {
  const UniformKSampler sampler(6, 1);
  Rng rng(7);
  std::vector<bool> hit(6, false);
  for (int i = 0; i < 200; ++i) {
    const CrashScenario scenario = sampler.sample(rng);
    for (std::size_t p = 0; p < 6; ++p)
      if (scenario.dead_from_start(ProcId(p))) hit[p] = true;
  }
  EXPECT_TRUE(std::all_of(hit.begin(), hit.end(), [](bool b) { return b; }));
}

TEST(ScenarioSamplers, SamplersAreDeterministicPerStream) {
  const ExponentialLifetimeSampler exp_sampler(8, 0.01);
  const WeibullLifetimeSampler weibull_sampler(8, 1.5, 200.0);
  const CrashWindowSampler window_sampler(8, 2, 10.0, 50.0);
  const CorrelatedGroupSampler group_sampler(8, 3, 0.5, 0.0, 20.0);
  for (const ScenarioSampler* sampler :
       {static_cast<const ScenarioSampler*>(&exp_sampler),
        static_cast<const ScenarioSampler*>(&weibull_sampler),
        static_cast<const ScenarioSampler*>(&window_sampler),
        static_cast<const ScenarioSampler*>(&group_sampler)}) {
    Rng a(99), b(99);
    for (int i = 0; i < 20; ++i) {
      const CrashScenario sa = sampler->sample(a);
      const CrashScenario sb = sampler->sample(b);
      for (std::size_t p = 0; p < 8; ++p)
        EXPECT_EQ(sa.crash_time(ProcId(p)), sb.crash_time(ProcId(p)))
            << sampler->name();
    }
  }
}

TEST(ScenarioSamplers, LifetimesArePositive) {
  const ExponentialLifetimeSampler exp_sampler(5, 0.1);
  const WeibullLifetimeSampler weibull_sampler(5, 0.8, 50.0);
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    for (const ScenarioSampler* sampler :
         {static_cast<const ScenarioSampler*>(&exp_sampler),
          static_cast<const ScenarioSampler*>(&weibull_sampler)}) {
      const CrashScenario scenario = sampler->sample(rng);
      for (std::size_t p = 0; p < 5; ++p)
        EXPECT_GT(scenario.crash_time(ProcId(p)), 0.0);
    }
  }
}

TEST(ScenarioSamplers, HorizonCensorsToNeverFails) {
  // A tiny horizon turns almost every draw into +inf (mean lifetime 1000).
  const ExponentialLifetimeSampler sampler(20, 0.001, 1e-6);
  Rng rng(11);
  std::size_t failed = 0;
  for (int i = 0; i < 20; ++i) failed += sampler.sample(rng).failed_count();
  EXPECT_EQ(failed, 0u);
}

TEST(ScenarioSamplers, WindowDrawsInsideWindow) {
  const CrashWindowSampler sampler(10, 4, 5.0, 9.0);
  Rng rng(21);
  for (int i = 0; i < 50; ++i) {
    const CrashScenario scenario = sampler.sample(rng);
    EXPECT_EQ(scenario.failed_count(), 4u);
    for (std::size_t p = 0; p < 10; ++p) {
      const double t = scenario.crash_time(ProcId(p));
      if (std::isinf(t)) continue;
      EXPECT_GE(t, 5.0);
      EXPECT_LT(t, 9.0);
    }
  }
}

TEST(ScenarioSamplers, GroupsFailAsUnits) {
  const CorrelatedGroupSampler sampler(9, 3, 0.5);
  Rng rng(31);
  bool saw_failure = false;
  for (int i = 0; i < 50; ++i) {
    const CrashScenario scenario = sampler.sample(rng);
    EXPECT_EQ(scenario.failed_count() % 3, 0u);  // whole groups only
    for (std::size_t g = 0; g < 3; ++g) {
      const bool first = scenario.dead_from_start(ProcId(3 * g));
      for (std::size_t j = 1; j < 3; ++j)
        EXPECT_EQ(scenario.dead_from_start(ProcId(3 * g + j)), first);
    }
    saw_failure = saw_failure || scenario.failed_count() > 0;
  }
  EXPECT_TRUE(saw_failure);
}

// The bits of every sampler's draws, pinned: 64-bit FNV-1a over the crash
// times of 4096 draws from the split streams a campaign hands out. A
// rewrite of a sampler must keep each Rng call and its order, which the
// cross-thread identity tests alone would not notice (both sides change).
TEST(ScenarioSamplers, DrawsArePinned) {
  const UniformKSampler uniform(12, 3);
  const ExponentialLifetimeSampler exponential(12, 0.01, 150.0);
  const WeibullLifetimeSampler weibull(12, 0.7, 80.0);
  const CrashWindowSampler window(12, 4, 10.0, 50.0);
  const CorrelatedGroupSampler groups(12, 3, 0.4, 5.0, 40.0);
  const CorrelatedGroupSampler fixed_theta(12, 5, 0.5, 7.0, 7.0);
  const std::pair<const ScenarioSampler*, std::uint64_t> pinned[] = {
      {&uniform, 0x33a19c6687dfd3a3ull},
      {&exponential, 0x5f7edea8983bac1full},
      {&weibull, 0x36f33a5dca8118cdull},
      {&window, 0xfdd216aa7c72fc64ull},
      {&groups, 0xb06678a0ff56007aull},
      {&fixed_theta, 0x643391cbaa721fcbull},
  };
  for (const auto& [sampler, expected] : pinned) {
    Rng master(20080201);
    std::uint64_t digest = 1469598103934665603ull;
    std::vector<double> times(sampler->proc_count());
    for (int i = 0; i < 4096; ++i) {
      Rng stream = master.split();
      Rng twin = stream;
      const CrashScenario scenario = sampler->sample(stream);
      sampler->sample_into(twin, times);
      for (std::size_t p = 0; p < sampler->proc_count(); ++p) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(times[p]),
                  std::bit_cast<std::uint64_t>(scenario.crash_time(ProcId(p))))
            << sampler->name() << " draw " << i;
        const auto bits = std::bit_cast<std::uint64_t>(
            scenario.crash_time(ProcId(p)));
        for (int byte = 0; byte < 8; ++byte)
          digest = (digest ^ ((bits >> (8 * byte)) & 0xFFu)) *
                   1099511628211ull;
      }
    }
    EXPECT_EQ(digest, expected)
        << sampler->name() << ": 0x" << std::hex << digest;
  }
}

TEST(ScenarioSamplers, RejectsBadParameters) {
  EXPECT_THROW(UniformKSampler(4, 5), CheckError);
  EXPECT_THROW(ExponentialLifetimeSampler(4, 0.0), CheckError);
  EXPECT_THROW(WeibullLifetimeSampler(4, -1.0, 10.0), CheckError);
  EXPECT_THROW(CrashWindowSampler(4, 1, 5.0, 2.0), CheckError);
  EXPECT_THROW(CorrelatedGroupSampler(4, 0, 0.5), CheckError);
  EXPECT_THROW(CorrelatedGroupSampler(4, 2, 1.5), CheckError);
}

// ------------------------------------------------------------------- stats

TEST(CampaignStats, WilsonIntervalBrackets) {
  const WilsonInterval ci = wilson_interval(90, 100);
  EXPECT_GT(ci.low, 0.8);
  EXPECT_LT(ci.low, 0.9);
  EXPECT_GT(ci.high, 0.9);
  EXPECT_LT(ci.high, 1.0);
}

TEST(CampaignStats, WilsonIntervalStaysInUnitRange) {
  const WilsonInterval all = wilson_interval(50, 50);
  EXPECT_LT(all.low, 1.0);   // finite sample: can't certify certainty
  EXPECT_NEAR(all.high, 1.0, 1e-12);
  const WilsonInterval none = wilson_interval(0, 50);
  EXPECT_NEAR(none.low, 0.0, 1e-12);
  EXPECT_GT(none.high, 0.0);
  const WilsonInterval empty = wilson_interval(0, 0);
  EXPECT_EQ(empty.low, 0.0);
  EXPECT_EQ(empty.high, 1.0);
}

TEST(CampaignStats, WilsonIntervalTightensWithSamples) {
  const WilsonInterval small = wilson_interval(9, 10);
  const WilsonInterval large = wilson_interval(900, 1000);
  EXPECT_LT(large.high - large.low, small.high - small.low);
}

TEST(CampaignStats, P2ExactForSmallSamples) {
  P2Quantile median(0.5);
  median.add(3.0);
  median.add(1.0);
  median.add(2.0);
  EXPECT_DOUBLE_EQ(median.value(), 2.0);
}

TEST(CampaignStats, P2MedianOfUniformDraws) {
  P2Quantile median(0.5);
  P2Quantile p90(0.9);
  Rng rng(47);
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.uniform01();
    median.add(x);
    p90.add(x);
  }
  EXPECT_NEAR(median.value(), 0.5, 0.02);
  EXPECT_NEAR(p90.value(), 0.9, 0.02);
}

TEST(CampaignStats, P2TracksShiftedExponential) {
  // Against the closed form: the q-quantile of Exp(1) is -ln(1-q).
  P2Quantile p99(0.99);
  Rng rng(53);
  for (int i = 0; i < 50000; ++i) p99.add(rng.exponential(1.0));
  EXPECT_NEAR(p99.value(), -std::log(0.01), 0.25);
}

TEST(CampaignStats, P2SurvivesIdenticalValues) {
  // Degenerate stream: every observation identical. Marker heights all
  // collide, so the parabolic update's numerator differences cancel; the
  // estimator must clamp to the (well-conditioned) linear fallback and
  // report the exact value, never NaN/inf.
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    P2Quantile est(q);
    for (int i = 0; i < 1000; ++i) est.add(42.5);
    EXPECT_TRUE(std::isfinite(est.value())) << "q=" << q;
    EXPECT_DOUBLE_EQ(est.value(), 42.5) << "q=" << q;
  }
}

TEST(CampaignStats, P2SurvivesNearDuplicateValues) {
  // Long runs of near-identical latencies (ulp-scale jitter around a few
  // plateaus) — the regime where height gaps underflow while position gaps
  // stay integral. The estimate must stay finite and inside the sample
  // range, and land on the dominant plateau.
  P2Quantile median(0.5);
  Rng rng(99);
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (int i = 0; i < 1000; ++i) {
    const double plateau = (i % 10 == 0) ? 100.0 : 50.0;
    const double x = plateau * (1.0 + 1e-15 * rng.uniform01());
    lo = std::min(lo, x);
    hi = std::max(hi, x);
    median.add(x);
    ASSERT_TRUE(std::isfinite(median.value())) << "at observation " << i;
  }
  EXPECT_GE(median.value(), lo);
  EXPECT_LE(median.value(), hi);
  EXPECT_NEAR(median.value(), 50.0, 1e-3);
}

TEST(CampaignStats, P2SurvivesExtremeMagnitudes) {
  // Huge magnitudes can overflow the parabolic step to ±inf; the clamp must
  // keep markers bracketed and the estimate finite.
  P2Quantile p90(0.9);
  Rng rng(7);
  for (int i = 0; i < 2000; ++i)
    p90.add((i % 2 == 0 ? 1.0 : 1e300) * (1.0 + rng.uniform01()));
  EXPECT_TRUE(std::isfinite(p90.value()));
}

TEST(CampaignStats, StreamingMomentsMatchDirectComputation) {
  StreamingMoments moments;
  const std::vector<double> xs = {4.0, 7.0, 13.0, 16.0};
  for (const double x : xs) moments.add(x);
  EXPECT_EQ(moments.count(), 4u);
  EXPECT_DOUBLE_EQ(moments.mean(), 10.0);
  EXPECT_DOUBLE_EQ(moments.min(), 4.0);
  EXPECT_DOUBLE_EQ(moments.max(), 16.0);
  EXPECT_NEAR(moments.stddev(), std::sqrt(30.0), 1e-12);  // sample variance
}

TEST(CampaignStats, TableAndJsonRender) {
  CampaignAccumulator acc(1, {0.5});
  CrashResult ok;
  ok.success = true;
  ok.latency = 10.0;
  ok.delivered_messages = 5;
  acc.add(1, ok);
  CrashResult lost;
  lost.success = false;
  acc.add(2, lost);
  acc.set_sampler_name("test");
  const Table table = campaign_table("t", {{"X", acc.summary()}});
  EXPECT_EQ(table.row_count(), 1u);
  std::ostringstream json;
  table.write_json(json);
  EXPECT_NE(json.str().find("\"success_rate\": 0.5"), std::string::npos);
}

// ---------------------------------------------------------------- executor

TEST(Campaign, SummaryIdenticalAcrossThreadCounts) {
  Scenario s = random_setup(101, 10, 1.0);
  const Schedule schedule = caft_for(s, 1);
  // Mean lifetime of 20 makespans: most replays succeed (so the latency
  // stream is non-trivial) while a visible minority lose work.
  const ExponentialLifetimeSampler sampler(
      10, 0.05 / schedule.zero_crash_latency());

  CampaignOptions one;
  one.replays = 300;
  one.threads = 1;
  const CampaignSummary a = run_campaign(schedule, *s.costs, sampler, one);

  CampaignOptions four = one;
  four.threads = 4;
  const CampaignSummary b = run_campaign(schedule, *s.costs, sampler, four);

  EXPECT_EQ(a.replays, b.replays);
  EXPECT_EQ(a.successes, b.successes);
  ASSERT_GT(a.successes, 0u);
  EXPECT_EQ(a.latency.mean(), b.latency.mean());  // bit-for-bit
  EXPECT_EQ(a.latency.min(), b.latency.min());
  EXPECT_EQ(a.latency.max(), b.latency.max());
  EXPECT_EQ(a.latency.stddev(), b.latency.stddev());
  ASSERT_EQ(a.latency_quantiles.size(), b.latency_quantiles.size());
  for (std::size_t i = 0; i < a.latency_quantiles.size(); ++i)
    EXPECT_EQ(a.latency_quantiles[i].value, b.latency_quantiles[i].value);
  EXPECT_EQ(a.delivered_messages.mean(), b.delivered_messages.mean());
  EXPECT_EQ(a.order_relaxations, b.order_relaxations);
  EXPECT_EQ(a.order_deadlocks, b.order_deadlocks);
}

// Process scale-out contract (api/session.hpp): any partition of the
// canonical scenario stream into contiguous blocks — computed in any order,
// with any per-block thread count — yields record streams whose
// concatenation is bit-identical to the whole-campaign stream, and whose
// canonical-order fold reproduces run_campaign's summary exactly.
/// run_campaign_block's streamed waves, concatenated; also checks that no
/// wave exceeds kCampaignWave records and, if `waves` is given, counts the
/// sink calls into it.
std::vector<ReplayRecord> block_records(const Schedule& schedule,
                                        const CostModel& costs,
                                        const ScenarioSampler& sampler,
                                        const CampaignOptions& options,
                                        std::size_t first, std::size_t count,
                                        std::size_t* waves = nullptr) {
  std::vector<ReplayRecord> records;
  if (waves != nullptr) *waves = 0;
  run_campaign_block(schedule, costs, sampler, options, first, count, nullptr,
                     [&](const ReplayRecord* wave, std::size_t size) {
                       EXPECT_LE(size, kCampaignWave);
                       records.insert(records.end(), wave, wave + size);
                       if (waves != nullptr) ++*waves;
                     });
  return records;
}

TEST(Campaign, BlockPartitionReproducesRecordStream) {
  Scenario s = random_setup(105, 10, 1.0);
  const Schedule schedule = caft_for(s, 1);
  const ExponentialLifetimeSampler sampler(
      10, 0.05 / schedule.zero_crash_latency());

  CampaignOptions options;
  options.replays = 3 * kCampaignWave + 211;
  options.threads = 2;
  const std::vector<ReplayRecord> whole =
      block_records(schedule, *s.costs, sampler, options, 0, options.replays);
  ASSERT_EQ(whole.size(), options.replays);

  // Uneven partition, blocks computed out of order, varying thread counts
  // — none of it may show in the stitched stream. The two large blocks
  // start mid-stream and run over three and two waves whose boundaries
  // fall between the whole run's, so a later wave's seed offset and the
  // cache it inherits are checked too.
  std::vector<ReplayRecord> stitched(whole.size());
  const std::vector<std::pair<std::size_t, std::size_t>> blocks = {
      {1200, options.replays - 1200}, {1, 1199}, {0, 1}};
  for (const auto& [first, count] : blocks) {
    ASSERT_LE(first + count, stitched.size());
    CampaignOptions block_options = options;
    block_options.threads = 1 + first % 3;
    std::size_t waves = 0;
    const std::vector<ReplayRecord> records = block_records(
        schedule, *s.costs, sampler, block_options, first, count, &waves);
    ASSERT_EQ(records.size(), count);
    EXPECT_EQ(waves, (count + kCampaignWave - 1) / kCampaignWave) << first;
    std::copy(records.begin(), records.end(),
              stitched.begin() + static_cast<std::ptrdiff_t>(first));
  }
  for (std::size_t i = 0; i < whole.size(); ++i) {
    EXPECT_EQ(whole[i].success, stitched[i].success) << i;
    EXPECT_EQ(whole[i].order_deadlock, stitched[i].order_deadlock) << i;
    EXPECT_EQ(whole[i].latency, stitched[i].latency) << i;  // bit-for-bit
    EXPECT_EQ(whole[i].delivered_messages, stitched[i].delivered_messages)
        << i;
    EXPECT_EQ(whole[i].order_relaxations, stitched[i].order_relaxations)
        << i;
    EXPECT_EQ(whole[i].failed_count, stitched[i].failed_count) << i;
  }

  // Folding the stitched stream in canonical order is the coordinator's
  // half; it must land on run_campaign's summary bit-for-bit.
  const CampaignSummary reference =
      run_campaign(schedule, *s.costs, sampler, options);
  CampaignAccumulator accumulator(schedule.eps(), options.quantiles);
  accumulator.set_sampler_name(sampler.name());
  for (const ReplayRecord& record : stitched)
    fold_replay_record(accumulator, record);
  const CampaignSummary folded = accumulator.summary();
  EXPECT_EQ(reference.replays, folded.replays);
  EXPECT_EQ(reference.successes, folded.successes);
  EXPECT_EQ(reference.success_ci.low, folded.success_ci.low);
  EXPECT_EQ(reference.success_ci.high, folded.success_ci.high);
  EXPECT_EQ(reference.latency.mean(), folded.latency.mean());
  EXPECT_EQ(reference.latency.stddev(), folded.latency.stddev());
  ASSERT_EQ(reference.latency_quantiles.size(),
            folded.latency_quantiles.size());
  for (std::size_t i = 0; i < reference.latency_quantiles.size(); ++i)
    EXPECT_EQ(reference.latency_quantiles[i].value,
              folded.latency_quantiles[i].value);
  EXPECT_EQ(reference.delivered_messages.mean(),
            folded.delivered_messages.mean());
  EXPECT_EQ(reference.max_failed, folded.max_failed);
  EXPECT_EQ(reference.sampler, folded.sampler);
}

// CampaignFold is chunking-blind: one record stream fed record by record,
// in chunks of 7 and whole must fold to the same summary and stop at the
// same point — a multiple of kCampaignWave — with every later record
// discarded.
TEST(CampaignFold, ChunkingChangesNeitherSummaryNorStopPoint) {
  std::vector<ReplayRecord> stream(8 * kCampaignWave);
  Rng rng(77);
  for (ReplayRecord& record : stream) {
    record.success = rng.uniform01() < 0.7;
    record.latency = record.success ? 100.0 + 50.0 * rng.uniform01() : 0.0;
    record.delivered_messages = static_cast<std::size_t>(rng.uniform01() * 40);
    record.failed_count = static_cast<std::size_t>(rng.uniform01() * 4);
  }
  // At a ~70% success rate a 0.035-wide interval takes about 3 waves.
  for (const double target : {0.0, 0.035}) {
    CampaignOptions options;
    options.replays = stream.size();
    options.target_ci_width = target;
    std::vector<std::size_t> progress_done;
    options.on_progress = [&](const CampaignProgress& progress) {
      progress_done.push_back(progress.replays_done);
    };
    const auto fold_in_chunks = [&](std::size_t chunk) {
      CampaignFold fold(1, "synthetic", options);
      for (std::size_t first = 0; first < stream.size(); first += chunk)
        fold.add(stream.data() + first,
                 std::min(chunk, stream.size() - first));
      return std::make_pair(fold.summary(), fold.telemetry().replays);
    };
    const auto [whole, whole_replays] = fold_in_chunks(stream.size());
    EXPECT_EQ(whole.replays, whole_replays);
    if (target > 0.0) {
      EXPECT_GT(whole.replays, kCampaignWave);
      EXPECT_LT(whole.replays, stream.size());
      EXPECT_EQ(whole.replays % kCampaignWave, 0u);
      EXPECT_LE(whole.success_ci.high - whole.success_ci.low, target);
    } else {
      EXPECT_EQ(whole.replays, stream.size());
    }
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}}) {
      progress_done.clear();
      const auto [chunked, chunked_replays] = fold_in_chunks(chunk);
      expect_summaries_identical(whole, chunked,
                                 "chunk=" + std::to_string(chunk));
      EXPECT_EQ(chunked_replays, whole_replays);
      // Progress fires per chunk the fold kept, never past the stop point.
      ASSERT_FALSE(progress_done.empty());
      EXPECT_EQ(progress_done.back(), whole.replays);
    }
  }
}

// Proposition 5.2: a schedule built for ε failures survives *every* crash
// set of at most ε processors — so a uniform-k campaign with k <= ε must
// report an empirical success rate of exactly 1.
TEST(Campaign, WithinEpsilonAlwaysSucceeds) {
  for (std::uint64_t seed : {103, 104}) {
    Scenario s = random_setup(seed, 10, 0.7);
    const Schedule schedule = caft_for(s, 2);
    for (std::size_t k : {1, 2}) {
      const UniformKSampler sampler(10, k);
      CampaignOptions options;
      options.replays = 200;
      const CampaignSummary summary =
          run_campaign(schedule, *s.costs, sampler, options);
      EXPECT_EQ(summary.successes, summary.replays) << "k=" << k;
      EXPECT_DOUBLE_EQ(summary.success_rate(), 1.0);
      EXPECT_EQ(summary.replays_within_eps, summary.replays);
      EXPECT_EQ(summary.successes_within_eps, summary.replays);
      EXPECT_EQ(summary.max_failed, k);
    }
  }
}

// Under stochastic lifetimes some scenarios exceed ε failures, but the
// within-ε split must still show zero losses among the <= ε draws (FTSA
// carries the same guarantee).
TEST(Campaign, WithinEpsilonSplitHoldsUnderLifetimes) {
  Scenario s = random_setup(105, 10, 1.0);
  const Schedule schedule = ftsa_schedule(
      s.graph, *s.platform, *s.costs, SchedulerOptions{1, CommModelKind::kOnePort});
  // Per-processor failure probability within the makespan horizon of
  // 1 - e^-0.2 ~ 18%: a third of the draws stay within ε = 1 while the
  // majority land beyond it, populating both sides of the split.
  const double makespan = schedule.zero_crash_latency();
  const ExponentialLifetimeSampler sampler(10, 0.2 / makespan, makespan);
  CampaignOptions options;
  options.replays = 300;
  const CampaignSummary summary =
      run_campaign(schedule, *s.costs, sampler, options);
  ASSERT_GT(summary.replays_within_eps, 0u);  // split must not be vacuous
  EXPECT_LT(summary.replays_within_eps, summary.replays);
  EXPECT_EQ(summary.successes_within_eps, summary.replays_within_eps);
  EXPECT_GT(summary.max_failed, 1u);          // the tail beyond ε was reached
  EXPECT_LT(summary.successes, summary.replays);  // and some replays died
  EXPECT_LE(summary.success_ci.low, summary.success_rate());
  EXPECT_GE(summary.success_ci.high, summary.success_rate());
}

TEST(Campaign, ZeroFailureSamplerReproducesCommittedLatency) {
  Scenario s = random_setup(106, 10, 1.0);
  const Schedule schedule = caft_for(s, 1);
  const UniformKSampler sampler(10, 0);
  CampaignOptions options;
  options.replays = 8;
  const CampaignSummary summary =
      run_campaign(schedule, *s.costs, sampler, options);
  EXPECT_EQ(summary.successes, summary.replays);
  EXPECT_NEAR(summary.latency.mean(), schedule.zero_crash_latency(), 1e-6);
  EXPECT_NEAR(summary.latency.min(), summary.latency.max(), 1e-12);
  EXPECT_EQ(summary.order_relaxations, 0u);
}

// The campaign.replays_per_second gauge must divide the replays actually
// executed: an early-stopped campaign runs far fewer than it requested.
TEST(Campaign, EarlyStoppedRateGaugeCountsExecutedReplays) {
  Scenario s = random_setup(108, 10, 1.0);
  const Schedule schedule = caft_for(s, 1);
  const UniformKSampler sampler(10, 3);  // beyond ε: mixed outcomes
  CampaignOptions options;
  options.replays = 100000;
  options.target_ci_width = 0.25;
  obs::Registry& registry = obs::Registry::global();
  registry.set_enabled(true);
  CampaignTelemetry telemetry;
  (void)run_campaign(schedule, *s.costs, sampler, options, &telemetry);
  const double gauge =
      registry.snapshot().gauge_value("campaign.replays_per_second");
  registry.set_enabled(false);
  ASSERT_LT(telemetry.replays, options.replays);
  ASSERT_GT(telemetry.wall_seconds, 0.0);
  EXPECT_EQ(gauge,
            static_cast<double>(telemetry.replays) / telemetry.wall_seconds);
}

// ------------------------------------------------- oracle identity

TEST(Campaign, MatchesOracleOnUniformKAndWindowSamplers) {
  // Record cache, in-wave duplicates and miss ordering must all be
  // invisible: bit-identical to replaying every draw with simulate_crashes.
  const Scenario s = random_setup(111, 8, 1.0);
  const Schedule schedule = caft_for(s, 1);
  const UniformKSampler uniform(8, 2);
  const CrashWindowSampler window(8, 2, 0.0, schedule.horizon());
  for (const ScenarioSampler* sampler :
       {static_cast<const ScenarioSampler*>(&uniform),
        static_cast<const ScenarioSampler*>(&window)}) {
    // Uniform-k over two waves: the second hits records the cache kept
    // from the first. Window draws never repeat, and the oracle replays
    // each one in full, so part of one wave of them suffices.
    CampaignOptions options;
    options.replays = sampler == &uniform ? kCampaignWave + 100 : 500;
    const CampaignSummary oracle =
        oracle_campaign(schedule, *s.costs, *sampler, options);
    for (const std::size_t threads : {1u, 4u}) {
      options.threads = threads;
      expect_summaries_identical(
          run_campaign(schedule, *s.costs, *sampler, options), oracle,
          sampler->name() + " threads " + std::to_string(threads));
    }
  }
}

TEST(Campaign, MatchesOracleAbove64Procs) {
  // Dead sets on m > 64 fit no 64-bit mask; the canonical crash-time
  // vector keys the cache anyway.
  const test::WideChain wide(72);
  const UniformKSampler sampler(72, 2);
  CampaignOptions options;
  options.replays = 400;
  const CampaignSummary oracle =
      oracle_campaign(wide.schedule, wide.costs, sampler, options);
  for (const std::size_t threads : {1u, 4u}) {
    options.threads = threads;
    CampaignTelemetry telemetry;
    expect_summaries_identical(
        run_campaign(wide.schedule, wide.costs, sampler, options, &telemetry),
        oracle, "threads " + std::to_string(threads));
    EXPECT_EQ(telemetry.memo_lookups, options.replays);
    EXPECT_GT(telemetry.memo_hits, 0u);
  }
}

TEST(Campaign, UniformKReplaysEachDeadSetOnce) {
  // C(10, 2) = 45 dead sets: however long the campaign, the kernel replays
  // each at most once, and every draw goes through the cache.
  const Scenario s = random_setup(112, 10, 1.0);
  const Schedule schedule = caft_for(s, 1);
  const UniformKSampler sampler(10, 2);
  CampaignOptions options;
  options.replays = 200000;
  CampaignTelemetry telemetry;
  (void)run_campaign(schedule, *s.costs, sampler, options, &telemetry);
  EXPECT_EQ(telemetry.memo_lookups, options.replays);
  EXPECT_LE(telemetry.memo_lookups - telemetry.memo_hits, 45u);
  EXPECT_EQ(telemetry.memo_entries,
            telemetry.memo_lookups - telemetry.memo_hits);
  EXPECT_EQ(telemetry.memo_evictions, 0u);
}

// The pipelined executor's invariants on an early-stopped, multi-wave
// uniform-k campaign: the stop lands mid-range at the same replay for every
// thread count, with identical summaries and telemetry — and the wave drawn
// alongside the final fold is never counted.
TEST(Campaign, EarlyStopIsThreadBlindAndDropsTheSpeculativeWave) {
  const Scenario s = random_setup(114, 10, 1.0);
  const Schedule schedule = caft_for(s, 2);
  const UniformKSampler sampler(10, 3);  // k > ε: about 1% survive
  CampaignOptions options;
  options.replays = 50000;
  options.target_ci_width = 0.006;
  std::vector<std::pair<CampaignSummary, CampaignTelemetry>> runs;
  for (const std::size_t threads : {1, 2, 4}) {
    options.threads = threads;
    CampaignTelemetry telemetry;
    const CampaignSummary summary =
        run_campaign(schedule, *s.costs, sampler, options, &telemetry);
    runs.emplace_back(summary, telemetry);
  }
  const auto& [summary, telemetry] = runs.front();
  ASSERT_GE(summary.replays, 3 * kCampaignWave);  // several waves ran
  ASSERT_GT(summary.successes, 0u);
  // and the fold stopped before the last wave
  ASSERT_LT(summary.replays, options.replays - kCampaignWave);
  EXPECT_EQ(summary.replays % kCampaignWave, 0u);
  EXPECT_EQ(telemetry.replays, summary.replays);
  EXPECT_EQ(telemetry.memo_lookups, summary.replays);
  EXPECT_EQ(telemetry.blocks, summary.replays / kCampaignWave);
  for (std::size_t r = 1; r < runs.size(); ++r) {
    const std::string context = "run " + std::to_string(r);
    expect_summaries_identical(summary, runs[r].first, context);
    const CampaignTelemetry& other = runs[r].second;
    EXPECT_EQ(telemetry.memo_lookups, other.memo_lookups) << context;
    EXPECT_EQ(telemetry.memo_hits, other.memo_hits) << context;
    EXPECT_EQ(telemetry.memo_evictions, other.memo_evictions) << context;
    EXPECT_EQ(telemetry.memo_entries, other.memo_entries) << context;
    EXPECT_EQ(telemetry.blocks, other.blocks) << context;
    EXPECT_EQ(telemetry.replays, other.replays) << context;
  }
}

// A work order's `exec <threads>` comes from the peer: an absurd value
// must not size the worker group.
TEST(Campaign, BlockIgnoresAbsurdThreadCounts) {
  const Scenario s = random_setup(114, 10, 1.0);
  const Schedule schedule = caft_for(s, 1);
  const CrashWindowSampler sampler(10, 2, 0.0, schedule.horizon());
  CampaignOptions options;
  options.threads = 1;
  const std::vector<ReplayRecord> reference =
      block_records(schedule, *s.costs, sampler, options, 0, 100);
  options.threads = 1'000'000;
  const std::vector<ReplayRecord> absurd =
      block_records(schedule, *s.costs, sampler, options, 0, 100);
  ASSERT_EQ(reference.size(), 100u);
  ASSERT_EQ(absurd.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(reference[i].success, absurd[i].success) << i;
    EXPECT_EQ(reference[i].latency, absurd[i].latency) << i;
    EXPECT_EQ(reference[i].delivered_messages, absurd[i].delivered_messages)
        << i;
    EXPECT_EQ(reference[i].failed_count, absurd[i].failed_count) << i;
  }
}

/// Emits NaN crash times on exactly one draw of a campaign stream: the one
/// whose split stream opens with `marker`. A pure function of the stream,
/// like every sampler.
class NanOnceSampler final : public ScenarioSampler {
 public:
  NanOnceSampler(std::size_t proc_count, std::uint64_t marker)
      : proc_count_(proc_count), marker_(marker) {}
  [[nodiscard]] std::string name() const override { return "nan-once"; }
  [[nodiscard]] std::size_t proc_count() const override { return proc_count_; }
  void sample_into(Rng& rng, std::span<double> times) const override {
    const double t = rng() == marker_
                         ? std::numeric_limits<double>::quiet_NaN()
                         : std::numeric_limits<double>::infinity();
    std::fill(times.begin(), times.end(), t);
  }

 private:
  std::size_t proc_count_;
  std::uint64_t marker_;
};

// A draw that fails its checks on a worker thread fails the campaign on
// the caller, at any thread count — never a silent record, never a crash.
TEST(Campaign, BadDrawOnAWorkerThrowsOnTheCaller) {
  const Scenario s = random_setup(115, 10, 1.0);
  const Schedule schedule = caft_for(s, 1);
  CampaignOptions options;
  options.replays = 2000;
  // Draw 1024 + 700 lies in the second wave, whose draw phase also folds
  // the first wave on slot 0.
  Rng master(options.seed);
  for (std::size_t i = 0; i < kCampaignWave + 700; ++i) (void)master.split();
  Rng poisoned = master.split();
  const NanOnceSampler sampler(10, poisoned());
  for (const std::size_t threads : {1, 4}) {
    options.threads = threads;
    EXPECT_THROW(
        (void)run_campaign(schedule, *s.costs, sampler, options), CheckError)
        << "threads=" << threads;
  }
}

// The per-draw path of a campaign in steady state — sample_into, the span
// canonicalize and a cache find — allocates nothing.
TEST(Campaign, SteadyStateUniformKDrawAllocatesNothing) {
  const Scenario s = random_setup(116, 10, 1.0);
  const Schedule schedule = caft_for(s, 1);
  const ReplayEngine engine(schedule, *s.costs, ReplayEngineOptions{});
  const UniformKSampler sampler(10, 2);
  RecordCache cache;
  std::vector<double> times(10);
  std::vector<double> key(10);
  Rng master(7);
  const auto draw = [&] {
    Rng stream(master.split_seed());
    sampler.sample_into(stream, times);
    EXPECT_EQ(engine.canonicalize(times, key),
              ReplayEngine::Canonical::kExact);
    return cache.find(std::span<const double>(key));
  };
  for (int i = 0; i < 2000; ++i)
    if (draw() == cache.end()) cache.emplace(key, ReplayRecord{});
  ASSERT_EQ(cache.size(), 45u);  // C(10, 2): every dead set seen

  const std::uint64_t before = ::test::t_allocations;
  std::size_t hits = 0;
  for (int i = 0; i < 1000; ++i) hits += draw() != cache.end() ? 1 : 0;
  EXPECT_EQ(::test::t_allocations, before);
  EXPECT_EQ(hits, 1000u);
}

// A warm θ replay — snapshot restore, the commit loop, θ-deaths and their
// propagation, and the result written into the Scratch — allocates nothing
// once its Scratch has replayed the same scenarios.
TEST(ReplayEngine, WarmThetaReplayAllocatesNothing) {
  RandomDagParams dag;
  dag.min_tasks = 80;
  dag.max_tasks = 80;
  const Scenario s = random_setup(117, 10, 1.0, dag);
  const Schedule schedule = caft_for(s, 2);
  const ReplayEngine engine(schedule, *s.costs);
  const CrashWindowSampler sampler(10, 2, 0.0, schedule.horizon() / 2.0);
  Rng rng(1171);
  std::vector<CrashScenario> scenarios;
  for (int i = 0; i < 64; ++i) scenarios.push_back(sampler.sample(rng));
  ReplayEngine::Scratch scratch;
  double warm = 0.0;
  for (const CrashScenario& scenario : scenarios)
    warm += engine.replay(scenario, scratch).latency;

  const std::uint64_t commits = scratch.commits();
  const std::uint64_t before = ::test::t_allocations;
  double again = 0.0;
  for (const CrashScenario& scenario : scenarios)
    again += engine.replay(scenario, scratch).latency;
  EXPECT_EQ(::test::t_allocations, before);
  EXPECT_EQ(again, warm);
  EXPECT_GT(scratch.commits(), commits);
}

// One Scratch serves replays of two different schedules in turn, as the
// experiment runner's workers do: a recording engine on a 10-processor
// clique (its links are dropped) and a template-only engine on an
// 8-processor ring (its links are kept), so every per-op, per-slot and
// per-resource array changes size at each switch. Each replay must equal
// one through a fresh Scratch, for θ crashes (restored cuts on the clique)
// and dead-from-start sets alike.
TEST(ReplayEngine, ScratchMovesBetweenEngines) {
  const Scenario clique = random_setup(119, 10, 1.0);
  const Scenario ring = test::topology_setup(120, Topology::ring(8), 1.0);
  const Schedule clique_schedule = caft_for(clique, 2);
  const Schedule ring_schedule = caft_for(ring, 2);
  ReplayEngineOptions template_only;
  template_only.max_snapshots = 0;
  const ReplayEngine clique_engine(clique_schedule, *clique.costs);
  const ReplayEngine ring_engine(ring_schedule, *ring.costs, template_only);
  const CrashWindowSampler clique_theta(10, 2, 0.0,
                                        clique_schedule.horizon() / 2.0);
  const CrashWindowSampler ring_theta(8, 2, 0.0,
                                      ring_schedule.horizon() / 2.0);
  const UniformKSampler clique_dead(10, 2);
  const UniformKSampler ring_dead(8, 2);
  const auto expect_same = [](const CrashResult& fresh,
                              const CrashResult& moved) {
    EXPECT_EQ(fresh.success, moved.success);
    EXPECT_EQ(fresh.latency, moved.latency);
    EXPECT_EQ(fresh.completed, moved.completed);
    EXPECT_EQ(fresh.finish, moved.finish);
    EXPECT_EQ(fresh.delivered_messages, moved.delivered_messages);
    EXPECT_EQ(fresh.order_relaxations, moved.order_relaxations);
    EXPECT_EQ(fresh.order_deadlock, moved.order_deadlock);
  };
  ReplayEngine::Scratch shared;
  Rng rng(1191);
  for (int draw = 0; draw < 8; ++draw) {
    SCOPED_TRACE("draw " + std::to_string(draw));
    const bool theta = draw % 2 == 0;
    const CrashScenario on_clique =
        theta ? clique_theta.sample(rng) : clique_dead.sample(rng);
    const CrashScenario on_ring =
        theta ? ring_theta.sample(rng) : ring_dead.sample(rng);
    expect_same(clique_engine.replay(on_clique),
                clique_engine.replay(on_clique, shared));
    expect_same(ring_engine.replay(on_ring),
                ring_engine.replay(on_ring, shared));
  }
}

TEST(ReplayEngine, BuildAllocationsDoNotGrowWithTheSchedule) {
  // A recording build sizes every per-op array once and keeps one flat
  // fault-free timeline, so its allocation count is a constant: the same
  // fixed bound holds for a 100-task and a 300-task schedule on m = 20.
  constexpr std::uint64_t kBound = 256;
  for (const std::size_t tasks : {100u, 300u}) {
    RandomDagParams dag;
    dag.min_tasks = tasks;
    dag.max_tasks = tasks;
    const Scenario s = random_setup(118, 20, 1.0, dag);
    const Schedule schedule = caft_for(s, 2);
    const std::uint64_t before = ::test::t_allocations;
    const ReplayEngine engine(schedule, *s.costs);
    const std::uint64_t allocations = ::test::t_allocations - before;
    SCOPED_TRACE(std::to_string(tasks) + " tasks, " +
                 std::to_string(engine.event_count()) + " events");
    EXPECT_GT(engine.snapshot_count(), 1u);
    EXPECT_LT(allocations, kBound);
  }
}

TEST(Campaign, RejectsPrebuiltEngineWithAnotherThetaConfig) {
  // A prebuilt engine canonicalizes with its own bucket width; silently
  // using one built for another width would change the summary.
  const Scenario s = random_setup(113, 8, 1.0);
  const Schedule schedule = caft_for(s, 1);
  const CrashWindowSampler sampler(8, 1, 0.0, schedule.horizon());
  ReplayEngineOptions engine_options;
  engine_options.theta_bucket_width = schedule.horizon() / 8.0;
  const ReplayEngine engine(schedule, *s.costs, engine_options);

  CampaignOptions options;
  options.replays = 50;
  options.prebuilt_engine = &engine;
  options.theta_bucket_width = schedule.horizon() / 16.0;
  EXPECT_THROW((void)run_campaign(schedule, *s.costs, sampler, options),
               CheckError);
  options.theta_bucket_width = 0.0;
  EXPECT_THROW((void)run_campaign(schedule, *s.costs, sampler, options),
               CheckError);

  // The matching configuration runs, identical to an owned engine.
  options.theta_bucket_width = engine_options.theta_bucket_width;
  CampaignOptions owned = options;
  owned.prebuilt_engine = nullptr;
  expect_summaries_identical(
      run_campaign(schedule, *s.costs, sampler, options),
      run_campaign(schedule, *s.costs, sampler, owned), "prebuilt");
}

// ------------------------------------------------------- θ-quantization

TEST(Campaign, QuantizedCampaignEqualsOracleOnRepresentatives) {
  // The quantization contract, verified literally: a quantized campaign is
  // the oracle campaign replaying every crash-at-θ draw as its
  // bucket-midpoint representative.
  const Scenario s = random_setup(47, 6, 1.0);
  const Schedule schedule = caft_for(s, 1);
  const CrashWindowSampler sampler(6, 2, 0.0, schedule.horizon());
  CampaignOptions options;
  options.replays = kCampaignWave + 100;  // the second wave hits the first's
  options.theta_bucket_width = schedule.horizon() / 16.0;
  const CampaignSummary oracle =
      oracle_campaign(schedule, *s.costs, sampler, options);
  for (const std::size_t threads : {1u, 4u}) {
    options.threads = threads;
    CampaignTelemetry telemetry;
    expect_summaries_identical(
        run_campaign(schedule, *s.costs, sampler, options, &telemetry),
        oracle, "threads " + std::to_string(threads));
    EXPECT_EQ(telemetry.memo_lookups, options.replays);
    EXPECT_GT(telemetry.memo_hits, 0u);
  }
}

TEST(Campaign, QuantizationDriftShrinksWithBucketWidth) {
  // Replay results are step functions of θ (the state only changes when a
  // crash time crosses an op boundary), so a representative's replay can
  // differ from the draw's only when such a boundary separates θ from its
  // bucket midpoint — a fraction of draws that shrinks linearly with the
  // width. At ε-covered crash counts (k = 1 <= eps), success itself can
  // never drift: the schedule survives both the draw and its representative.
  const Scenario s = random_setup(53, 8, 1.0);
  const Schedule schedule = caft_for(s, 1);
  const double horizon = schedule.horizon();
  const ReplayEngine exact(schedule, *s.costs);
  const CrashWindowSampler window(8, 1, 0.0, horizon);
  const int draws = 300;
  std::vector<std::size_t> differing;
  for (const double width : {horizon / 16.0, horizon / 4096.0}) {
    ReplayEngineOptions options;
    options.theta_bucket_width = width;
    const ReplayEngine quantized(schedule, *s.costs, options);
    std::vector<double> times(8);
    Rng rng(5300);
    std::size_t differs = 0;
    for (int draw = 0; draw < draws; ++draw) {
      const CrashScenario scenario = window.sample(rng);
      ASSERT_EQ(quantized.canonicalize(scenario.crash_times(), times),
                ReplayEngine::Canonical::kQuantized);
      const CrashResult approx = quantized.replay(CrashScenario(times));
      const CrashResult truth = exact.replay(scenario);
      ASSERT_TRUE(truth.success);
      EXPECT_TRUE(approx.success);  // k=1 <= eps: survival cannot drift
      if (approx.latency != truth.latency) ++differs;
    }
    differing.push_back(differs);
  }
  // 256× finer buckets: the differing fraction must collapse (and stay
  // small in absolute terms).
  EXPECT_LE(differing[1], differing[0]);
  EXPECT_LE(differing[1], static_cast<std::size_t>(draws / 20));
}

TEST(Campaign, QuantizedSummariesIdenticalAcrossThreadCounts) {
  // The approximation must be a pure function of the scenario stream.
  const Scenario s = random_setup(61, 8, 1.0);
  const Schedule schedule = caft_for(s, 1);
  const CrashWindowSampler sampler(8, 2, 0.0, schedule.horizon());
  CampaignOptions options;
  options.replays = kCampaignWave + 100;  // two waves
  options.theta_bucket_width = schedule.horizon() / 24.0;
  options.threads = 1;
  const CampaignSummary reference =
      run_campaign(schedule, *s.costs, sampler, options);
  for (const std::size_t threads : {2u, 4u}) {
    options.threads = threads;
    expect_summaries_identical(
        reference, run_campaign(schedule, *s.costs, sampler, options),
        "threads " + std::to_string(threads));
  }
}

// --------------------------------------------------------- record cache

TEST(Campaign, RecordCacheStaysUnderCapOverMillionReplays) {
  // C(23, 5) = 33649 dead sets, just more than the cache holds: over 10^6
  // replays the cache must fill, clear and keep serving hits, never
  // holding more than its cap.
  // A ring keeps the replays cheap: few links, so few resources per replay.
  static_assert(kRecordCacheCapacity < 33649);
  Scenario s;
  s.graph = chain(3, 2.0);
  s.platform = std::make_unique<Platform>(Topology::ring(23));
  s.costs = std::make_unique<CostModel>(
      uniform_costs(s.graph, *s.platform, 2.0, 1.0));
  const Schedule schedule = caft_for(s, 1);
  const UniformKSampler sampler(23, 5);
  CampaignOptions options;
  options.replays = 1000000;
  options.threads = 2;
  CampaignTelemetry telemetry;
  (void)run_campaign(schedule, *s.costs, sampler, options, &telemetry);
  EXPECT_EQ(telemetry.memo_lookups, options.replays);
  EXPECT_LE(telemetry.memo_entries, kRecordCacheCapacity);
  EXPECT_GT(telemetry.memo_evictions, 0u);
  EXPECT_GT(telemetry.memo_hits, options.replays / 2);
}

// ------------------------------------------------------ cut placement

TEST(Campaign, EngineMatchesServerTemplate) {
  // Every campaign path replays on one engine configuration: run_campaign
  // builds its own engine exactly as the campaign server's cached template
  // is built, whatever the sampler — so the two agree on the cut count,
  // the telemetry a report's reader can see of the placement.
  Scenario s = random_setup(83, 10, 1.0);
  const auto instance = std::make_shared<const ftsched::Instance>(
      std::move(s.graph), std::move(s.platform), std::move(s.costs),
      ftsched::RunOptions{1});
  ftsched::server::ContentCache cache(8);
  const auto cached = cache.schedule(instance, 0, "caft", {});
  const Schedule& schedule = cached->result.schedule;
  const double horizon = schedule.horizon();
  const double width = horizon / 64.0;
  const std::size_t m = instance->proc_count();

  const UniformKSampler uniform(m, 1);
  const CrashWindowSampler window(m, 2, 0.0, horizon / 2.0);
  const ExponentialLifetimeSampler exponential(m, 1.0 / horizon, horizon);
  const WeibullLifetimeSampler weibull(m, 1.5, horizon, horizon);
  const CorrelatedGroupSampler groups(m, 2, 0.3, 0.0, horizon / 2.0);
  const std::size_t template_cuts =
      cache.replay_template(cached, width, false)->engine->snapshot_count();
  ASSERT_GT(template_cuts, 1u);
  for (const ScenarioSampler* sampler :
       std::initializer_list<const ScenarioSampler*>{
           &uniform, &window, &exponential, &weibull, &groups}) {
    SCOPED_TRACE(sampler->name());
    CampaignOptions options;
    options.replays = 200;
    options.threads = 1;
    options.theta_bucket_width = width;
    CampaignTelemetry telemetry;
    (void)run_campaign(schedule, instance->costs(), *sampler, options,
                       &telemetry);
    EXPECT_EQ(telemetry.snapshots, template_cuts);
  }
}

TEST(Campaign, RejectsMismatchedSamplerSize) {
  Scenario s = random_setup(107, 10, 1.0);
  const Schedule schedule = caft_for(s, 1);
  const UniformKSampler sampler(9, 1);
  EXPECT_THROW(run_campaign(schedule, *s.costs, sampler, CampaignOptions{}),
               CheckError);
}

}  // namespace
}  // namespace caft
