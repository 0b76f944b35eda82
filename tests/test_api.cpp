// Tests for the ftsched:: facade (api/instance, api/scheduler,
// api/session): registry enumeration and lookup, capability flags,
// ScheduleResult parity with the direct per-algorithm calls, Instance
// validation, and Session campaigns bit-identical to run_campaign.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "algo/caft.hpp"
#include "algo/caft_batch.hpp"
#include "algo/ftbar.hpp"
#include "algo/ftsa.hpp"
#include "algo/heft.hpp"
#include "api/api.hpp"
#include "campaign/campaign.hpp"
#include "campaign/scenario_sampler.hpp"
#include "dag/generators.hpp"
#include "helpers.hpp"
#include "platform/cost_synthesis.hpp"
#include "sched/validator.hpp"

namespace ftsched {
namespace {

using caft::CampaignSummary;
using caft::Schedule;
using caft::test::expect_summaries_identical;

const std::vector<std::string> kBuiltins = {"caft", "caft-batch", "ftsa",
                                            "ftbar", "heft"};

/// A randomized instance following the paper's protocol, adopted from the
/// shared test fixture (stable platform/costs addresses).
Instance random_instance(std::uint64_t seed, std::size_t procs, double g,
                         std::size_t eps) {
  caft::test::Scenario s = caft::test::random_setup(seed, procs, g);
  return Instance(std::move(s.graph), std::move(s.platform),
                  std::move(s.costs), RunOptions{eps});
}

/// Bit-for-bit equality of two schedules: same eps/model, same replica
/// placements (primaries and duplicates), same committed communications.
void expect_schedules_identical(const Schedule& a, const Schedule& b) {
  ASSERT_EQ(a.eps(), b.eps());
  ASSERT_EQ(a.model(), b.model());
  ASSERT_EQ(a.graph().task_count(), b.graph().task_count());
  for (std::size_t t = 0; t < a.graph().task_count(); ++t) {
    const caft::TaskId task(static_cast<caft::TaskId::value_type>(t));
    ASSERT_EQ(a.total_replicas(task), b.total_replicas(task));
    for (std::size_t r = 0; r < a.total_replicas(task); ++r) {
      const caft::ReplicaIndex replica =
          static_cast<caft::ReplicaIndex>(r);
      const caft::ReplicaAssignment& ra = a.replica(task, replica);
      const caft::ReplicaAssignment& rb = b.replica(task, replica);
      ASSERT_EQ(ra.proc, rb.proc);
      ASSERT_EQ(ra.start, rb.start);    // exact: same code path, same input
      ASSERT_EQ(ra.finish, rb.finish);
    }
  }
  ASSERT_EQ(a.comms().size(), b.comms().size());
  for (std::size_t i = 0; i < a.comms().size(); ++i) {
    const caft::CommAssignment& ca = a.comms()[i];
    const caft::CommAssignment& cb = b.comms()[i];
    ASSERT_EQ(ca.edge, cb.edge);
    ASSERT_EQ(ca.from, cb.from);
    ASSERT_EQ(ca.to, cb.to);
    ASSERT_EQ(ca.src_proc, cb.src_proc);
    ASSERT_EQ(ca.dst_proc, cb.dst_proc);
    ASSERT_EQ(ca.volume, cb.volume);
    ASSERT_EQ(ca.times.arrival, cb.times.arrival);
    ASSERT_EQ(ca.times.link_start, cb.times.link_start);
    ASSERT_EQ(ca.times.link_finish, cb.times.link_finish);
  }
  ASSERT_EQ(a.zero_crash_latency(), b.zero_crash_latency());
  ASSERT_EQ(a.upper_bound_latency(), b.upper_bound_latency());
  ASSERT_EQ(a.message_count(), b.message_count());
}

// ---------------------------------------------------------------- registry

TEST(Registry, EnumeratesBuiltinsInCanonicalOrder) {
  const auto names = SchedulerRegistry::global().names();
  ASSERT_GE(names.size(), kBuiltins.size());
  // Built-ins are registered before anything else, in canonical order
  // (other tests in this binary may append their own schedulers).
  for (std::size_t i = 0; i < kBuiltins.size(); ++i)
    EXPECT_EQ(names[i], kBuiltins[i]);
}

TEST(Registry, MakeReturnsTheNamedScheduler) {
  for (const std::string& name : kBuiltins)
    EXPECT_EQ(SchedulerRegistry::global().make(name)->name(), name);
}

TEST(Registry, UnknownNameThrowsWithKnownList) {
  try {
    (void)SchedulerRegistry::global().make("definitely-not-registered");
    FAIL() << "expected CheckError";
  } catch (const caft::CheckError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("unknown algo 'definitely-not-registered'"),
              std::string::npos)
        << message;
    EXPECT_NE(
        message.find("known: caft, caft-batch, ftsa, ftbar, heft"),
        std::string::npos)
        << message;
  }
}

TEST(Registry, ForEachVisitsEveryScheduler) {
  std::vector<std::string> visited;
  SchedulerRegistry::global().for_each(
      [&](const Scheduler& s) { visited.push_back(s.name()); });
  EXPECT_EQ(visited, SchedulerRegistry::global().names());
}

TEST(Registry, CapabilitiesMatchTheAlgorithms) {
  const auto& registry = SchedulerRegistry::global();
  EXPECT_TRUE(registry.make("caft")->capabilities().supports_eps);
  EXPECT_TRUE(registry.make("caft")->capabilities().contention_aware);
  EXPECT_FALSE(registry.make("caft")->capabilities().emits_duplicates);
  EXPECT_TRUE(registry.make("caft-batch")->capabilities().contention_aware);
  EXPECT_TRUE(registry.make("ftsa")->capabilities().supports_eps);
  EXPECT_FALSE(registry.make("ftsa")->capabilities().contention_aware);
  EXPECT_TRUE(registry.make("ftbar")->capabilities().emits_duplicates);
  EXPECT_FALSE(registry.make("heft")->capabilities().supports_eps);
}

TEST(Registry, RejectsDuplicateRegistration) {
  class Fake final : public Scheduler {
   public:
    [[nodiscard]] std::string name() const override { return "caft"; }
    [[nodiscard]] SchedulerCapabilities capabilities() const override {
      return {};
    }

   protected:
    [[nodiscard]] Schedule run(const Instance&,
                               const caft::SchedulerOptions&,
                               const ScheduleRequest&,
                               std::any*) const override {
      throw caft::CheckError("never scheduled");
    }
  };
  EXPECT_THROW(SchedulerRegistry::global().add(std::make_shared<Fake>()),
               caft::CheckError);
}

// An external scheduler registered by user code is discovered like a
// built-in — adding an algorithm needs no registry change.
class EchoHeftScheduler final : public Scheduler {
 public:
  [[nodiscard]] std::string name() const override { return "echo-heft"; }
  [[nodiscard]] SchedulerCapabilities capabilities() const override {
    return {};
  }

 protected:
  [[nodiscard]] std::size_t resolve_eps(
      const Instance&, const ScheduleRequest&) const override {
    return 0;
  }
  [[nodiscard]] Schedule run(const Instance& instance,
                             const caft::SchedulerOptions& options,
                             const ScheduleRequest&,
                             std::any*) const override {
    return heft_schedule(instance.graph(), instance.platform(),
                         instance.costs(), options.model);
  }
};

FTSCHED_REGISTER_SCHEDULER(EchoHeftScheduler)

TEST(Registry, SelfRegisteredExternalSchedulerIsDiscoverable) {
  ASSERT_TRUE(SchedulerRegistry::global().contains("echo-heft"));
  const Instance instance = random_instance(404, 8, 1.0, 0);
  const ScheduleResult via_registry =
      SchedulerRegistry::global().make("echo-heft")->schedule(instance);
  const ScheduleResult via_builtin =
      SchedulerRegistry::global().make("heft")->schedule(instance);
  expect_schedules_identical(via_registry.schedule, via_builtin.schedule);
}

// ---------------------------------------------------------------- instance

TEST(InstanceApi, ValidateRejectsEpsAtOrAboveProcCount) {
  const Instance instance = random_instance(1, 4, 1.0, 4);  // eps == m
  try {
    instance.validate();
    FAIL() << "expected CheckError";
  } catch (const caft::CheckError& error) {
    EXPECT_NE(std::string(error.what()).find("eps must be < m"),
              std::string::npos)
        << error.what();
  }
  EXPECT_NO_THROW(instance.validate(3));  // eps = m-1 is the legal maximum
}

TEST(InstanceApi, ValidateRejectsCostModelGraphMismatch) {
  caft::test::Scenario s = caft::test::random_setup(2, 6, 1.0);
  // Costs sized for a *different* (smaller) graph on the same platform.
  auto wrong_costs = std::make_unique<caft::CostModel>(
      caft::uniform_costs(caft::chain(3, 10.0), *s.platform, 1.0, 1.0));
  const Instance instance(std::move(s.graph), std::move(s.platform),
                          std::move(wrong_costs), RunOptions{1});
  try {
    instance.validate();
    FAIL() << "expected CheckError";
  } catch (const caft::CheckError& error) {
    EXPECT_NE(std::string(error.what()).find("different graph"),
              std::string::npos)
        << error.what();
  }
}

TEST(InstanceApi, AdoptionRejectsForeignPlatformCosts) {
  caft::test::Scenario s = caft::test::random_setup(3, 6, 1.0);
  auto other_platform = std::make_unique<caft::Platform>(6);
  auto foreign_costs = std::make_unique<caft::CostModel>(
      caft::uniform_costs(s.graph, *other_platform, 1.0, 1.0));
  EXPECT_THROW(Instance(std::move(s.graph), std::move(s.platform),
                        std::move(foreign_costs)),
               caft::CheckError);
}

TEST(InstanceApi, SchedulersFrontloadValidation) {
  const Instance instance = random_instance(4, 4, 1.0, 5);  // eps > m
  EXPECT_THROW(
      (void)SchedulerRegistry::global().make("caft")->schedule(instance),
      caft::CheckError);
  // HEFT pins eps to 0, so the same instance is fine there.
  EXPECT_NO_THROW(
      (void)SchedulerRegistry::global().make("heft")->schedule(instance));
}

TEST(InstanceApi, SaveLoadRoundTripsScheduleThroughFacade) {
  const std::string path = "/tmp/ftsched_api_roundtrip.txt";
  const Instance instance = random_instance(5, 8, 1.0, 1);
  const ScheduleResult result =
      SchedulerRegistry::global().make("caft")->schedule(instance);
  instance.save(path, &result.schedule);

  const Instance loaded = Instance::load(path);
  ASSERT_NE(loaded.loaded_schedule(), nullptr);
  EXPECT_EQ(loaded.eps(), 1u);  // adopted from the serialized schedule
  expect_schedules_identical(*loaded.loaded_schedule(), result.schedule);
  // The loaded instance schedules identically to the in-memory one.
  const ScheduleResult again =
      SchedulerRegistry::global().make("caft")->schedule(loaded);
  expect_schedules_identical(again.schedule, result.schedule);
}

TEST(InstanceApi, MovedInstanceKeepsSchedulesValid) {
  Instance instance = random_instance(6, 8, 1.0, 1);
  const ScheduleResult result =
      SchedulerRegistry::global().make("ftsa")->schedule(instance);
  const double latency = result.makespan;
  // Moving the instance must not invalidate the schedule's internal
  // pointers (everything lives behind one stable allocation).
  Instance moved = std::move(instance);
  EXPECT_EQ(result.schedule.zero_crash_latency(), latency);
  EXPECT_EQ(&result.schedule.graph(), &moved.graph());
  const caft::ValidationResult validation =
      validate_schedule(result.schedule, moved.costs());
  EXPECT_TRUE(validation.ok()) << validation.summary();
}

// ------------------------------------------------- facade/direct parity

TEST(FacadeParity, AllAlgorithmsMatchDirectCallsOnRandomInstances) {
  for (const std::uint64_t seed : {11u, 29u, 83u}) {
    for (const double granularity : {0.4, 1.0, 4.0}) {
      const std::size_t eps = seed % 2 == 0 ? 1 : 2;
      const Instance instance = random_instance(seed, 10, granularity, eps);
      const caft::SchedulerOptions base{eps, caft::CommModelKind::kOnePort};

      const auto check = [&](const std::string& name,
                             const Schedule& direct) {
        const ScheduleResult result =
            SchedulerRegistry::global().make(name)->schedule(instance);
        expect_schedules_identical(result.schedule, direct);
        // Metrics are read straight off the schedule.
        EXPECT_EQ(result.makespan, direct.zero_crash_latency());
        EXPECT_EQ(result.upper_bound, direct.upper_bound_latency());
        EXPECT_EQ(result.messages, direct.message_count());
        EXPECT_EQ(result.message_volume, direct.message_volume());
        // Validator verdict matches a direct validation.
        ASSERT_TRUE(result.validated);
        const caft::ValidationResult direct_validation =
            validate_schedule(direct, instance.costs());
        EXPECT_EQ(result.validation.ok(), direct_validation.ok());
        EXPECT_EQ(result.validation.issues.size(),
                  direct_validation.issues.size());
      };

      caft::CaftOptions caft_options;
      caft_options.base = base;
      check("caft", caft_schedule(instance.graph(), instance.platform(),
                                  instance.costs(), caft_options));

      caft::CaftBatchOptions batch_options;
      batch_options.caft.base = base;
      check("caft-batch",
            caft_batch_schedule(instance.graph(), instance.platform(),
                                instance.costs(), batch_options));

      check("ftsa", ftsa_schedule(instance.graph(), instance.platform(),
                                  instance.costs(), base));

      caft::FtbarOptions ftbar_options;
      ftbar_options.base = base;
      check("ftbar", ftbar_schedule(instance.graph(), instance.platform(),
                                    instance.costs(), ftbar_options));

      check("heft", heft_schedule(instance.graph(), instance.platform(),
                                  instance.costs(),
                                  caft::CommModelKind::kOnePort));
    }
  }
}

TEST(FacadeParity, RequestKnobsReachTheAlgorithms) {
  const Instance instance = random_instance(7, 10, 1.0, 2);

  // support_mode = direct matches a direct kDirect call.
  ScheduleRequest direct_request;
  direct_request.support_mode = caft::CaftSupportMode::kDirect;
  caft::CaftOptions direct_options;
  direct_options.base = {2, caft::CommModelKind::kOnePort};
  direct_options.support_mode = caft::CaftSupportMode::kDirect;
  expect_schedules_identical(
      SchedulerRegistry::global()
          .make("caft")
          ->schedule(instance, direct_request)
          .schedule,
      caft_schedule(instance.graph(), instance.platform(), instance.costs(),
                    direct_options));

  // eps override beats the instance's eps.
  ScheduleRequest eps_request;
  eps_request.eps = 1;
  const ScheduleResult eps_result =
      SchedulerRegistry::global().make("ftsa")->schedule(instance,
                                                         eps_request);
  EXPECT_EQ(eps_result.eps, 1u);
  EXPECT_EQ(eps_result.schedule.eps(), 1u);

  // HEFT ignores eps entirely.
  const ScheduleResult heft_result =
      SchedulerRegistry::global().make("heft")->schedule(instance);
  EXPECT_EQ(heft_result.eps, 0u);
  EXPECT_EQ(heft_result.schedule.primary_count(), 1u);

  // batch_size = 1 makes caft-batch collapse to caft exactly.
  ScheduleRequest batch1;
  batch1.batch_size = 1;
  expect_schedules_identical(
      SchedulerRegistry::global()
          .make("caft-batch")
          ->schedule(instance, batch1)
          .schedule,
      SchedulerRegistry::global().make("caft")->schedule(instance).schedule);
}

TEST(FacadeParity, TypedStatsRideAlong) {
  const Instance instance = random_instance(8, 10, 1.0, 1);
  const ScheduleResult caft_result =
      SchedulerRegistry::global().make("caft")->schedule(instance);
  const auto* stats = caft_result.stats_as<caft::CaftRunStats>();
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->one_to_one_commits + stats->fallback_commits, 0u);
  // FTSA publishes no stats; the typed accessor answers null, not garbage.
  const ScheduleResult ftsa_result =
      SchedulerRegistry::global().make("ftsa")->schedule(instance);
  EXPECT_EQ(ftsa_result.stats_as<caft::CaftRunStats>(), nullptr);
}

// ------------------------------------------------------------- session

TEST(SessionApi, EvaluateIsBitIdenticalToRunCampaign) {
  const Instance instance = random_instance(21, 10, 1.0, 2);

  CampaignSpec spec;
  spec.algorithms = {"caft", "ftsa", "ftbar"};
  spec.sampler = SamplerSpec::uniform_k(2);
  spec.replays = 400;
  spec.seed = 777;

  const Session session;
  const CampaignReport report = session.evaluate(instance, spec);
  ASSERT_EQ(report.runs.size(), 3u);

  // Hand-rolled pre-facade path: direct scheduling + run_campaign with the
  // same seeds must give byte-identical summaries.
  const caft::SchedulerOptions base{2, caft::CommModelKind::kOnePort};
  caft::CaftOptions caft_options;
  caft_options.base = base;
  caft::FtbarOptions ftbar_options;
  ftbar_options.base = base;
  const std::vector<std::pair<std::string, Schedule>> direct = {
      {"caft", caft_schedule(instance.graph(), instance.platform(),
                             instance.costs(), caft_options)},
      {"ftsa", ftsa_schedule(instance.graph(), instance.platform(),
                             instance.costs(), base)},
      {"ftbar", ftbar_schedule(instance.graph(), instance.platform(),
                               instance.costs(), ftbar_options)},
  };
  const caft::UniformKSampler sampler(10, 2);
  caft::CampaignOptions options;
  options.replays = 400;
  options.seed = 777;

  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(report.runs[i].algorithm, direct[i].first);
    expect_schedules_identical(report.runs[i].result.schedule,
                               direct[i].second);
    const CampaignSummary expected =
        run_campaign(direct[i].second, instance.costs(), sampler, options);
    expect_summaries_identical(report.runs[i].summary, expected);
  }

  // find() and summary_rows() expose the same runs.
  ASSERT_NE(report.find("ftsa"), nullptr);
  EXPECT_EQ(report.find("ftsa"), &report.runs[1]);
  EXPECT_EQ(report.find("heft"), nullptr);
  const auto rows = report.summary_rows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].first, "CAFT");
  EXPECT_EQ(rows[2].first, "FTBAR");
}

TEST(SessionApi, ReportsAreExecutionPolicyIndependent) {
  const Instance instance = random_instance(22, 8, 1.0, 1);
  CampaignSpec spec;
  spec.algorithms = {"caft"};
  spec.sampler = SamplerSpec::window(1, 0.0, 500.0);
  spec.replays = 300;

  SessionOptions one_thread;
  one_thread.threads = 1;
  SessionOptions four_threads;
  four_threads.threads = 4;

  const CampaignReport a = Session(one_thread).evaluate(instance, spec);
  const CampaignReport b = Session(four_threads).evaluate(instance, spec);
  expect_summaries_identical(a.runs[0].summary, b.runs[0].summary);

  // Both equal the simulate_crashes oracle of the same campaign.
  caft::CampaignOptions options;
  options.replays = spec.replays;
  options.seed = spec.seed;
  const CampaignSummary oracle = caft::test::oracle_campaign(
      a.runs[0].result.schedule, instance.costs(),
      *spec.sampler.build(instance.proc_count()), options);
  expect_summaries_identical(a.runs[0].summary, oracle);
}

TEST(SessionApi, ThetaBucketWidthRejectsDegenerateHorizons) {
  CampaignSpec spec;
  spec.theta_buckets = 16;
  // A zero or non-finite horizon admits no bucket width: 0-width buckets
  // would silently degenerate to exact replays, inf/NaN would poison every
  // quantized crash time. The derivation must refuse, pointing at the
  // exact path.
  EXPECT_THROW((void)spec.theta_bucket_width(0.0), caft::CheckError);
  EXPECT_THROW((void)spec.theta_bucket_width(-1.0), caft::CheckError);
  EXPECT_THROW(
      (void)spec.theta_bucket_width(std::numeric_limits<double>::infinity()),
      caft::CheckError);
  EXPECT_THROW(
      (void)spec.theta_bucket_width(std::numeric_limits<double>::quiet_NaN()),
      caft::CheckError);
  EXPECT_DOUBLE_EQ(spec.theta_bucket_width(16.0), 1.0);
  // An exact spec derives no width either, so a degenerate horizon is
  // fine: exact is the escape hatch the error message points at.
  CampaignSpec exact = spec;
  exact.exact = true;
  EXPECT_NO_THROW(EXPECT_EQ(exact.theta_bucket_width(0.0), 0.0));
  // No buckets, no width — degenerate horizons are fine then.
  spec.theta_buckets = 0;
  EXPECT_DOUBLE_EQ(spec.theta_bucket_width(0.0), 0.0);
}

TEST(SessionApi, ExactCampaignsNeverDeriveABucketWidth) {
  // exact + buckets on a degenerate schedule must run, not throw: the
  // exact path is precisely the documented escape hatch for schedules
  // whose horizon admits no bucket width.
  const Instance instance = random_instance(43, 8, 1.0, 1);
  CampaignSpec spec;
  spec.algorithms = {"caft"};
  spec.replays = 10;
  spec.theta_buckets = 16;
  spec.exact = true;
  const CampaignReport report = Session().evaluate(instance, spec);
  EXPECT_DOUBLE_EQ(report.runs[0].theta_bucket_width, 0.0);
}

TEST(SessionApi, ExactnessEscapeHatchDisablesQuantization) {
  // `exact` with buckets configured must give the plain exact campaign: the
  // spec zeroes the bucket width, so crash-at-θ draws have no canonical
  // form and replay as drawn.
  const Instance instance = random_instance(59, 6, 1.0, 1);
  CampaignSpec plain;
  plain.algorithms = {"caft"};
  plain.sampler = SamplerSpec::window(2, 0.0, 500.0);
  plain.replays = 200;
  CampaignSpec hatched = plain;
  hatched.theta_buckets = 4;  // very coarse
  hatched.exact = true;
  SessionOptions two_threads;
  two_threads.threads = 2;
  SessionOptions four_threads;
  four_threads.threads = 4;
  const CampaignRun exact =
      Session(four_threads).evaluate(instance, hatched).runs[0];
  const CampaignRun reference =
      Session(two_threads).evaluate(instance, plain).runs[0];
  expect_summaries_identical(reference.summary, exact.summary);
  EXPECT_EQ(exact.theta_bucket_width, 0.0);
  EXPECT_EQ(exact.telemetry.memo_lookups, 0u);

  caft::CampaignOptions options;
  options.replays = plain.replays;
  options.seed = plain.seed;
  expect_summaries_identical(
      exact.summary,
      caft::test::oracle_campaign(exact.result.schedule, instance.costs(),
                                  *plain.sampler.build(instance.proc_count()),
                                  options));
}

TEST(SessionApi, InProcessTargetCiWidthStopsEarlyAndDeterministically) {
  const Instance instance = random_instance(44, 8, 1.0, 1);
  CampaignSpec spec;
  spec.algorithms = {"caft"};
  spec.replays = 4000;
  // A loose target: the Wilson interval narrows below it long before the
  // full budget, so the in-process backend must stop at a wave boundary
  // with a truncated (but non-empty) canonical prefix.
  spec.target_ci_width = 0.2;
  const SessionOptions options;
  const CampaignReport report = Session(options).evaluate(instance, spec);
  ASSERT_EQ(report.runs.size(), 1u);
  const caft::CampaignSummary& stopped = report.runs[0].summary;
  EXPECT_GT(stopped.replays, 0u);
  EXPECT_LT(stopped.replays, spec.replays);
  EXPECT_EQ(stopped.replays % caft::kCampaignWave, 0u);  // wave-boundary cut
  EXPECT_LE(stopped.success_ci.high - stopped.success_ci.low,
            spec.target_ci_width);

  // The stopping point is a function of the spec only: any thread
  // count folds the same canonical prefix, byte-for-byte — the property
  // the campaign server's cached-vs-fresh identity rests on.
  SessionOptions threaded = options;
  threaded.threads = 4;
  const CampaignReport again = Session(threaded).evaluate(instance, spec);
  expect_summaries_identical(again.runs[0].summary, stopped);

  // And the width itself must be a meaningful CI width.
  spec.target_ci_width = 1.5;
  EXPECT_THROW((void)Session().evaluate(instance, spec), caft::CheckError);
  spec.target_ci_width = -0.1;
  EXPECT_THROW((void)Session().evaluate(instance, spec), caft::CheckError);
}

TEST(SessionApi, DisplayNameUppercases) {
  EXPECT_EQ(display_name("caft"), "CAFT");
  EXPECT_EQ(display_name("caft-batch"), "CAFT-BATCH");
  EXPECT_EQ(display_name("heft"), "HEFT");
}

}  // namespace
}  // namespace ftsched
