// Tests for the process-parallel campaign backend (api/session.hpp):
//   - the worker protocol round-trips through run_campaign_worker without
//     any process machinery (work order in, partial result out, records
//     bit-identical to run_campaign_block);
//   - the derived block size of the subprocess coordinator is capped;
//   - Session summaries under ExecutionPolicy::subprocess are *byte-
//     identical* to in-process ones at 1, 2 and 4 workers (the acceptance
//     gate of the scale-out contract);
//   - worker-failure recovery: a worker that crashes mid-campaign, or one
//     that emits garbage, is retried and the final summary is still
//     bit-identical; a persistently failing worker fails the campaign
//     loudly after the retry budget.
//
// The subprocess tests drive the real campaign_cli binary; ctest exports
// its path as CAFT_CAMPAIGN_CLI (see CMakeLists.txt). When the variable is
// absent (running the test binary by hand), those tests skip.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "campaign/campaign.hpp"
#include "common/check.hpp"
#include "helpers.hpp"
#include "api/campaign_wire.hpp"
#include "obs/obs.hpp"

namespace ftsched {
namespace {

using caft::CampaignSummary;
using caft::test::expect_summaries_identical;

std::string cli_path() {
  const char* path = std::getenv("CAFT_CAMPAIGN_CLI");
  return path == nullptr ? std::string() : std::string(path);
}

/// A randomized paper-protocol instance (stable platform/costs addresses).
Instance random_instance(std::uint64_t seed, std::size_t procs, double g,
                         std::size_t eps) {
  caft::test::Scenario s = caft::test::random_setup(seed, procs, g);
  return Instance(std::move(s.graph), std::move(s.platform),
                  std::move(s.costs), RunOptions{eps});
}

/// Writes an executable wrapper script the coordinator spawns in place of
/// campaign_cli — the fault-injection hook of the recovery tests.
std::string write_script(const caft::test::ScratchDir& dir, const std::string& name,
                         const std::string& body) {
  const std::string script = dir.file(name);
  {
    std::ofstream out(script);
    out << "#!/bin/sh\n" << body;
  }
  ::chmod(script.c_str(), 0755);
  return script;
}

/// A lifetime campaign spec with successes *and* failures, so the latency
/// stream (mean, quantiles — the order-sensitive folds) is non-trivial.
CampaignSpec lifetime_spec(std::size_t replays) {
  CampaignSpec spec;
  spec.algorithms = {"caft"};
  spec.sampler = SamplerSpec::exponential(0.0001);
  spec.replays = replays;
  spec.seed = 4242;
  return spec;
}

TEST(CampaignWorker, ProtocolRoundTripMatchesDirectBlock) {
  const Instance instance = random_instance(301, 8, 1.0, 1);
  const auto scheduler = SchedulerRegistry::global().make("caft");
  const ScheduleResult scheduled = scheduler->schedule(instance);

  std::ostringstream instance_text;
  instance.save(instance_text);

  CampaignWorkOrder order;
  order.instance_bytes = instance_text.str();
  order.algorithm = "caft";
  order.first = 37;
  order.count = 113;
  order.spec = lifetime_spec(1000);
  order.spec.request.eps = scheduled.eps;
  order.spec.request.model = scheduled.schedule.model();
  order.expect_makespan = scheduled.makespan;
  order.expect_horizon = scheduled.schedule.horizon();

  std::ostringstream order_doc;
  write_campaign_work_order(order_doc, order);
  std::istringstream in(order_doc.str());
  std::ostringstream out;
  run_campaign_worker(in, out);

  std::istringstream partial_doc(out.str());
  const CampaignPartialResult partial = read_campaign_partial(partial_doc);
  EXPECT_EQ(partial.algorithm, "caft");
  EXPECT_EQ(partial.first, 37u);
  EXPECT_EQ(partial.count, 113u);

  // The worker's records, after one serialize/parse round-trip, must be
  // bit-identical to computing the block directly in this process.
  const auto sampler = order.spec.sampler.build(instance.proc_count());
  caft::CampaignOptions options;
  options.seed = order.spec.seed;
  options.threads = 1;
  std::vector<caft::ReplayRecord> direct;
  caft::run_campaign_block(
      scheduled.schedule, instance.costs(), *sampler, options, 37, 113,
      nullptr, [&](const caft::ReplayRecord* records, std::size_t count) {
        direct.insert(direct.end(), records, records + count);
      });
  ASSERT_EQ(partial.records.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(partial.records[i].success, direct[i].success);
    EXPECT_EQ(partial.records[i].latency, direct[i].latency);
    EXPECT_EQ(partial.records[i].delivered_messages,
              direct[i].delivered_messages);
    EXPECT_EQ(partial.records[i].failed_count, direct[i].failed_count);
  }
}

TEST(CampaignWorker, RefusesDivergentSchedulePins) {
  const Instance instance = random_instance(302, 8, 1.0, 1);
  std::ostringstream instance_text;
  instance.save(instance_text);

  CampaignWorkOrder order;
  order.instance_bytes = instance_text.str();
  order.algorithm = "caft";
  order.first = 0;
  order.count = 10;
  order.spec = lifetime_spec(10);
  order.spec.request.eps = 1;
  order.expect_makespan = 1.0;  // no CAFT schedule of this instance has it

  std::ostringstream order_doc;
  write_campaign_work_order(order_doc, order);
  std::istringstream in(order_doc.str());
  std::ostringstream out;
  EXPECT_THROW(run_campaign_worker(in, out), caft::CheckError);
}

TEST(SessionSubprocess, ByteIdenticalAcrossWorkerCounts) {
  const std::string cli = cli_path();
  if (cli.empty()) GTEST_SKIP() << "CAFT_CAMPAIGN_CLI not set (run via ctest)";

  const Instance instance = random_instance(303, 10, 1.0, 1);
  // Mean lifetime of two makespans: successes and failures are both common,
  // so the order-sensitive latency folds (P², Welford) see a real stream.
  const ScheduleResult scheduled =
      SchedulerRegistry::global().make("caft")->schedule(instance);
  CampaignSpec spec = lifetime_spec(400);
  spec.sampler = SamplerSpec::exponential(0.5 / scheduled.makespan);

  const Session in_process{};
  const CampaignReport reference = in_process.evaluate(instance, spec);
  ASSERT_EQ(reference.runs.size(), 1u);
  // A latency stream with both outcomes, or the test proves too little.
  ASSERT_GT(reference.runs[0].summary.successes, 0u);
  ASSERT_LT(reference.runs[0].summary.successes, 400u);

  for (const std::size_t workers : {1u, 2u, 4u}) {
    SessionOptions options;
    options.exec = ExecutionPolicy::subprocess(cli, workers);
    const Session session(options);
    const CampaignReport report = session.evaluate(instance, spec);
    ASSERT_EQ(report.runs.size(), 1u);
    expect_summaries_identical(reference.runs[0].summary,
                               report.runs[0].summary);
  }
}

TEST(SessionSubprocess, TelemetryParityWithInProcess) {
  const std::string cli = cli_path();
  if (cli.empty()) GTEST_SKIP() << "CAFT_CAMPAIGN_CLI not set (run via ctest)";

  const Instance instance = random_instance(310, 8, 1.0, 1);
  CampaignSpec spec = lifetime_spec(400);
  // Dead-from-t0 masks are the cacheable scenario shape (8 masks for
  // k = 1), so the cache telemetry the parity below compares is non-trivial.
  spec.sampler = SamplerSpec::uniform_k(1);

  const Session in_process{};
  const CampaignRun reference = in_process.evaluate(instance, spec).runs[0];

  SessionOptions options;
  options.exec = ExecutionPolicy::subprocess(cli, 2);
  const CampaignRun subprocess =
      Session(options).evaluate(instance, spec).runs[0];

  // Both backends report the same telemetry story (PR 6): every field is
  // populated with identical semantics, and the deterministic fields agree.
  const caft::CampaignTelemetry& a = reference.telemetry;
  const caft::CampaignTelemetry& b = subprocess.telemetry;
  EXPECT_EQ(a.replays, spec.replays);
  EXPECT_EQ(b.replays, spec.replays);
  // Every draw has a canonical form, so both backends look every replay up
  // in the record cache; lookups − hits counts kernel replays. In-process,
  // one cache serves the whole campaign: each of the 8 masks replays once.
  // Each worker block owns a fresh cache, so it replays its masks again:
  // the subprocess backend can only hit less often.
  EXPECT_EQ(a.memo_lookups, spec.replays);
  EXPECT_EQ(b.memo_lookups, spec.replays);
  EXPECT_LE(a.memo_lookups - a.memo_hits, 8u);
  EXPECT_LE(a.memo_entries, 8u);
  EXPECT_LE(b.memo_hits, a.memo_hits);
  EXPECT_EQ(a.memo_evictions, 0u);
  // Workers run the same engine configuration, so the folded snapshot
  // count is per-worker-identical; the coordinator reports the maximum.
  EXPECT_EQ(b.snapshots, a.snapshots);
  EXPECT_GT(a.blocks, 0u);
  EXPECT_GT(b.blocks, 0u);
  EXPECT_GE(a.workers, 1u);
  EXPECT_EQ(b.workers, 2u);
  EXPECT_EQ(a.worker_retries, 0u);
  EXPECT_EQ(b.worker_retries, 0u);
  EXPECT_GT(a.wall_seconds, 0.0);
  EXPECT_GT(b.wall_seconds, 0.0);
}

TEST(SessionSubprocess, MultiAlgorithmEvaluateMatchesInProcess) {
  const std::string cli = cli_path();
  if (cli.empty()) GTEST_SKIP() << "CAFT_CAMPAIGN_CLI not set (run via ctest)";

  const Instance instance = random_instance(305, 10, 0.7, 2);
  CampaignSpec spec = lifetime_spec(200);
  spec.algorithms = {"caft", "ftsa"};
  spec.sampler = SamplerSpec::uniform_k(2);
  const CampaignReport reference = Session{}.evaluate(instance, spec);

  SessionOptions options;
  options.exec = ExecutionPolicy::subprocess(cli, 2);
  const CampaignReport report = Session(options).evaluate(instance, spec);

  ASSERT_EQ(reference.runs.size(), 2u);
  ASSERT_EQ(report.runs.size(), 2u);
  for (std::size_t r = 0; r < reference.runs.size(); ++r) {
    EXPECT_EQ(reference.runs[r].algorithm, report.runs[r].algorithm);
    expect_summaries_identical(reference.runs[r].summary,
                               report.runs[r].summary);
  }
}

TEST(ExecutionPolicy, AutoBlockSizeIsCapped) {
  // The auto block aims at ~4 blocks per worker, but never past the cap:
  // coordinator memory is window × block records, so an uncapped block
  // would grow with the replay count.
  const ExecutionPolicy policy = ExecutionPolicy::subprocess("unused", 2);
  EXPECT_EQ(policy.block_size(1000), 125u);
  EXPECT_EQ(policy.block_size(1), 1u);
  EXPECT_EQ(policy.block_size(1000000000),
            ExecutionPolicy::kMaxAutoBlockReplays);
  EXPECT_EQ(ExecutionPolicy::kMaxAutoBlockReplays, std::size_t{1} << 18);
}

TEST(SessionSubprocess, RetriesCrashedWorkerAndStaysIdentical) {
  const std::string cli = cli_path();
  if (cli.empty()) GTEST_SKIP() << "CAFT_CAMPAIGN_CLI not set (run via ctest)";

  const Instance instance = random_instance(306, 8, 1.0, 1);
  const CampaignSpec spec = lifetime_spec(300);
  const Session in_process{};
  const CampaignSummary reference =
      in_process.evaluate(instance, spec).runs[0].summary;

  const caft::test::ScratchDir dir("ftsched-subproc");
  // The first invocation to claim the poison marker dies mid-campaign with
  // a nonzero status (a killed/crashed worker, as the coordinator sees it);
  // every later invocation behaves normally.
  const std::string poison = dir.file("poison");
  const std::string script = write_script(
      dir, "flaky_worker.sh",
      "if rm \"" + poison + "\" 2>/dev/null; then\n"
      "  echo 'injected worker crash' >&2\n"
      "  exit 7\n"
      "fi\n"
      "exec \"" + cli + "\" \"$@\"\n");
  { std::ofstream marker(poison); }

  SessionOptions options;
  options.exec = ExecutionPolicy::subprocess(script, 2);
  const Session session(options);
  const CampaignReport report = session.evaluate(instance, spec);
  expect_summaries_identical(reference, report.runs[0].summary);
  EXPECT_FALSE(std::filesystem::exists(poison));  // the crash did happen
}

TEST(SessionSubprocess, RetriesPoisonedOutputAndStaysIdentical) {
  const std::string cli = cli_path();
  if (cli.empty()) GTEST_SKIP() << "CAFT_CAMPAIGN_CLI not set (run via ctest)";

  const Instance instance = random_instance(307, 8, 1.0, 1);
  const CampaignSpec spec = lifetime_spec(300);
  const Session in_process{};
  const CampaignSummary reference =
      in_process.evaluate(instance, spec).runs[0].summary;

  const caft::test::ScratchDir dir("ftsched-subproc");
  // The poisoned invocation exits 0 but emits garbage instead of a partial
  // result — the strict wire parser must reject it and the coordinator
  // must retry, never fold it.
  const std::string poison = dir.file("poison");
  const std::string script = write_script(
      dir, "poisoned_worker.sh",
      "if rm \"" + poison + "\" 2>/dev/null; then\n"
      "  echo 'caft-campaign-partial v1'\n"
      "  echo 'this is not a record'\n"
      "  exit 0\n"
      "fi\n"
      "exec \"" + cli + "\" \"$@\"\n");
  { std::ofstream marker(poison); }

  SessionOptions options;
  options.exec = ExecutionPolicy::subprocess(script, 2);
  const Session session(options);
  const CampaignReport report = session.evaluate(instance, spec);
  expect_summaries_identical(reference, report.runs[0].summary);
  EXPECT_FALSE(std::filesystem::exists(poison));
}

TEST(SessionSubprocess, StreamedFoldBoundedByReorderWindow) {
  const std::string cli = cli_path();
  if (cli.empty()) GTEST_SKIP() << "CAFT_CAMPAIGN_CLI not set (run via ctest)";

  const Instance instance = random_instance(311, 8, 1.0, 1);
  const CampaignSpec spec = lifetime_spec(600);
  const Session in_process{};
  const CampaignSummary reference =
      in_process.evaluate(instance, spec).runs[0].summary;

  // Delaying wrapper: the first invocation to claim the marker sleeps half
  // a second, so later blocks complete first and must buffer in the
  // reorder window until the straggler folds — the exact pattern that made
  // the old coordinator's memory O(replays).
  const caft::test::ScratchDir dir("ftsched-subproc");
  const std::string script = write_script(
      dir, "straggler_worker.sh",
      "if mkdir \"" + dir.file("straggler-claimed") + "\" 2>/dev/null; then\n"
      "  sleep 0.5\n"
      "fi\n"
      "exec \"" + cli + "\" \"$@\"\n");

  // 4 workers: 16 blocks of at most 38 replays, a window of 8 blocks.
  SessionOptions options;
  options.exec = ExecutionPolicy::subprocess(script, 4);
  const Session session(options);

  // The peak-window gauge is the coordinator's own measurement of how many
  // blocks it ever buffered; arm the registry to read it back.
  obs::Registry& registry = obs::Registry::global();
  registry.set_enabled(true);
  const CampaignReport report = session.evaluate(instance, spec);
  const obs::MetricsSnapshot metrics = registry.snapshot();
  registry.set_enabled(false);

  // Byte-identity survives the straggler-induced reordering...
  expect_summaries_identical(reference, report.runs[0].summary);
  // ...and coordinator memory stayed bounded by the window, not by the
  // campaign: at most max(2 × 4, 4) = 8 blocks buffered, ever.
  const double peak = metrics.gauge_value("campaign.fold.window_peak");
  EXPECT_GE(peak, 1.0);
  EXPECT_LE(peak, 8.0);
  EXPECT_EQ(report.runs[0].telemetry.fold_window_peak,
            static_cast<std::size_t>(peak));
  // The straggler forced at least one block to wait for the fold frontier.
  EXPECT_GE(metrics.counter_value("campaign.fold.blocks_buffered"), 1u);
  EXPECT_EQ(report.runs[0].telemetry.blocks, 16u);
}

TEST(SessionSubprocess, OutOfOrderCompletionStaysIdenticalAcrossWorkers) {
  const std::string cli = cli_path();
  if (cli.empty()) GTEST_SKIP() << "CAFT_CAMPAIGN_CLI not set (run via ctest)";

  const Instance instance = random_instance(312, 10, 1.0, 1);
  const ScheduleResult scheduled =
      SchedulerRegistry::global().make("caft")->schedule(instance);
  CampaignSpec spec = lifetime_spec(400);
  spec.sampler = SamplerSpec::exponential(0.5 / scheduled.makespan);

  const Session in_process{};
  const CampaignSummary reference =
      in_process.evaluate(instance, spec).runs[0].summary;

  // Jittering wrapper: each worker invocation sleeps 0–0.2 s depending on
  // its pid, so block completion order is scrambled differently on every
  // run — the streamed fold must reproduce the canonical summary from any
  // completion order, at any worker count, within the derived window.
  const caft::test::ScratchDir dir("ftsched-subproc");
  const std::string script = write_script(dir, "jitter_worker.sh",
                                          "sleep 0.$(( $$ % 3 ))\n"
                                          "exec \"" + cli + "\" \"$@\"\n");

  for (const std::size_t workers : {1u, 2u, 4u}) {
    SessionOptions options;
    options.exec = ExecutionPolicy::subprocess(script, workers);
    const Session session(options);
    const CampaignReport report = session.evaluate(instance, spec);
    expect_summaries_identical(reference, report.runs[0].summary);
    EXPECT_LE(report.runs[0].telemetry.fold_window_peak,
              std::max<std::size_t>(2 * workers, 4));
  }
}

TEST(SessionSubprocess, EarlyStopFoldsAContiguousCanonicalPrefix) {
  const std::string cli = cli_path();
  if (cli.empty()) GTEST_SKIP() << "CAFT_CAMPAIGN_CLI not set (run via ctest)";

  // Uniform-k beyond ε: about 1% survive, and replays stay cheap enough
  // for TSan.
  const Instance instance = random_instance(314, 8, 1.0, 3);
  CampaignSpec spec = lifetime_spec(8000);
  spec.sampler = SamplerSpec::uniform_k(4);
  spec.target_ci_width = 0.007;  // reached after five waves

  // The stop rule is checked every kCampaignWave records of the canonical
  // stream, whichever backend folds it. The derived wire blocks (2000,
  // 1000 and 500 replays at 1, 2 and 4 workers) do not line up with those
  // check points, so the fold must cut inside a block and discard the rest
  // of it, and of every block claimed after it.
  const CampaignRun reference = Session{}.evaluate(instance, spec).runs[0];
  const std::size_t folded = reference.summary.replays;
  EXPECT_GE(folded, 3 * caft::kCampaignWave);
  EXPECT_LT(folded, spec.replays - caft::kCampaignWave);
  EXPECT_EQ(folded % caft::kCampaignWave, 0u);

  for (const std::size_t workers : {1u, 2u, 4u}) {
    SessionOptions options;
    options.exec = ExecutionPolicy::subprocess(cli, workers);
    // The cut falls inside a wire block.
    ASSERT_NE(folded % options.exec.block_size(spec.replays), 0u);
    const CampaignRun run =
        Session(options).evaluate(instance, spec).runs[0];
    expect_summaries_identical(reference.summary, run.summary,
                               "workers=" + std::to_string(workers));
    EXPECT_EQ(run.telemetry.replays, folded);
  }

  // The folded set is the contiguous canonical prefix [0, folded): a
  // campaign of exactly that many replays is byte-identical. (This is
  // what makes early stopping a *truncated* campaign rather than a
  // subsampled one.)
  CampaignSpec prefix = spec;
  prefix.replays = folded;
  prefix.target_ci_width = 0.0;
  const CampaignSummary truncated =
      Session{}.evaluate(instance, prefix).runs[0].summary;
  expect_summaries_identical(truncated, reference.summary);
}

TEST(SessionSubprocess, FailsLoudlyAfterRetryBudget) {
  const Instance instance = random_instance(308, 8, 1.0, 1);
  const CampaignSpec spec = lifetime_spec(100);

  const caft::test::ScratchDir dir("ftsched-subproc");
  const std::string script =
      write_script(dir, "dead_worker.sh", "exit 3\n");

  SessionOptions options;
  options.exec = ExecutionPolicy::subprocess(script, 2);
  const Session session(options);
  try {
    (void)session.evaluate(instance, spec);
    FAIL() << "a persistently failing worker must fail the campaign";
  } catch (const caft::CheckError& error) {
    // The message names the block, the kMaxRetries + 1 attempts made and
    // the observed failure.
    const std::string message = error.what();
    EXPECT_NE(message.find("after 3 attempts"), std::string::npos) << message;
    EXPECT_NE(message.find("exited with status 3"), std::string::npos)
        << message;
  }
}

TEST(SessionSubprocess, RequiresWorkerCommand) {
  const Instance instance = random_instance(309, 8, 1.0, 1);
  SessionOptions options;
  options.exec.mode = ExecutionPolicy::Mode::kSubprocess;  // no command
  const Session session(options);
  EXPECT_THROW((void)session.evaluate(instance, lifetime_spec(10)),
               caft::CheckError);
}

}  // namespace
}  // namespace ftsched
