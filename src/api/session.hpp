/// \file api/session.hpp
/// `ftsched::Session` — the batch/campaign service facade of the library.
///
/// A Session owns the execution policy of fault-injection campaigns: the
/// worker-thread budget and where campaigns run (this process or worker
/// processes).
/// Consumers describe *what* to evaluate declaratively — a `CampaignSpec`
/// names registered algorithms, a sampler distribution (`SamplerSpec`, plain
/// data so specs can cross process boundaries when campaigns scale out) and
/// the replay/seed budget — and the Session turns it into scheduled
/// instances and folded `CampaignReport`s.
///
/// Determinism contract (inherited from campaign/run_campaign): a report is
/// a pure function of (instance, spec) — thread count, worker blocks and
/// backend never change a summary. `evaluate` is therefore
/// bit-identical to hand-rolling registry->schedule + run_campaign with the
/// same seeds, and tests/test_api.cpp holds it to that.
///
/// `evaluate_schedule` is the one place a campaign picks its backend: the
/// Session's `ExecutionPolicy` either runs it in this process or fans its
/// scenario stream out to worker processes (see api/campaign_wire.hpp for
/// the protocol) — the deterministic split-stream contract makes the
/// records placement-independent, and both backends fold them through one
/// caft::CampaignFold in canonical order, which makes reports — early
/// stops included — *byte-identical* to in-process runs. A batch is a loop
/// over `evaluate`; another execution policy is another Session.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/instance.hpp"
#include "api/scheduler.hpp"
#include "campaign/campaign.hpp"
#include "campaign/scenario_sampler.hpp"
#include "campaign/stats.hpp"

namespace ftsched {

/// Declarative crash-distribution configuration — the data form of the
/// campaign/scenario_sampler class family. Build with the factories.
struct SamplerSpec {
  enum class Kind {
    kUniformK,     ///< k distinct processors dead from t=0 (paper model)
    kExponential,  ///< per-processor exponential lifetimes
    kWeibull,      ///< per-processor Weibull lifetimes
    kWindow,       ///< k processors crash at θ ~ U[theta_lo, theta_hi]
    kGroups,       ///< contiguous groups fail together at a shared θ
  };
  Kind kind = Kind::kUniformK;
  std::size_t failures = 1;  ///< k (uniform-k, window)
  double rate = 0.001;       ///< exponential
  double shape = 1.5;        ///< weibull
  double scale = 1000.0;     ///< weibull
  /// Lifetimes beyond the horizon are censored to "never fails".
  double horizon = std::numeric_limits<double>::infinity();
  double theta_lo = 0.0;  ///< window/groups crash-time window
  double theta_hi = 0.0;
  std::size_t group_size = 2;  ///< groups
  double group_prob = 0.1;     ///< groups

  [[nodiscard]] static SamplerSpec uniform_k(std::size_t k);
  [[nodiscard]] static SamplerSpec exponential(
      double rate,
      double horizon = std::numeric_limits<double>::infinity());
  [[nodiscard]] static SamplerSpec weibull(
      double shape, double scale,
      double horizon = std::numeric_limits<double>::infinity());
  [[nodiscard]] static SamplerSpec window(std::size_t k, double theta_lo,
                                          double theta_hi);
  [[nodiscard]] static SamplerSpec groups(std::size_t group_size,
                                          double group_prob, double theta_lo,
                                          double theta_hi);

  /// Materializes the sampler for a platform of `procs` processors.
  [[nodiscard]] std::unique_ptr<caft::ScenarioSampler> build(
      std::size_t procs) const;

  /// The report/display name of the materialized sampler (delegates to the
  /// sampler class, the single source of that string).
  [[nodiscard]] std::string name(std::size_t procs) const {
    return build(procs)->name();
  }
};

/// What one campaign evaluates: which registered algorithms, under which
/// crash distribution, with which replay/seed budget.
struct CampaignSpec {
  /// Registry names, campaigned in this order. Every name is resolved via
  /// SchedulerRegistry::make — unknown names fail with the canonical
  /// "unknown algo 'x'; known: ..." error before any work starts.
  std::vector<std::string> algorithms = {"caft", "ftsa", "ftbar"};
  SamplerSpec sampler;
  std::size_t replays = 1000;
  std::uint64_t seed = 20080201;
  /// Latency quantiles to estimate, each in (0, 1).
  std::vector<double> quantiles = {0.5, 0.9, 0.99};
  /// θ-quantization: split each schedule's horizon into this many buckets
  /// and replay each crash-at-θ draw as its bucket-midpoint representative
  /// (0 = off, bit-exact replays).
  std::size_t theta_buckets = 0;
  /// Exactness escape hatch: bit-exact replays even with buckets set. It
  /// acts through theta_bucket_width alone, which it zeroes.
  bool exact = false;
  /// Early stopping: stop once the Wilson 95% interval around the folded
  /// prefix's success rate is at most this wide (0 = off, run all
  /// replays; otherwise inside (0, 1)). The summary then covers a
  /// *contiguous canonical prefix* of the scenario stream. Both backends
  /// fold through one caft::CampaignFold, which checks after every
  /// caft::kCampaignWave records, so the stopping point is a
  /// deterministic function of the spec: byte-identical across threads,
  /// backends, worker counts and wire block sizes.
  double target_ci_width = 0.0;
  /// Forwarded to every scheduler (ε/model overrides, algorithm knobs).
  ScheduleRequest request;

  /// The bucket width theta_buckets implies for a schedule of this
  /// horizon (0 when theta_buckets == 0 or exact is set). The *single*
  /// derivation the in-process path, the subprocess worker and the
  /// campaign server's template cache use — the width changes replay
  /// results, so every side must agree bit-for-bit. Throws
  /// caft::CheckError when buckets are requested for a zero or non-finite
  /// horizon (empty or fully-dead schedule) of a non-exact spec: no
  /// meaningful width is derivable, so the caller must take the exact path
  /// instead of silently replaying with 0-width buckets.
  [[nodiscard]] double theta_bucket_width(double schedule_horizon) const;
};

/// How a Session physically executes campaigns: in this process (the
/// default) or fanned out across worker *processes*. Like every other
/// execution knob, the mode can never change a summary: the subprocess
/// backend assigns contiguous scenario blocks of the same deterministic
/// split-stream to workers (campaign_cli --worker speaking the
/// api/campaign_wire protocol) and folds their per-replay records back in
/// canonical scenario order, so subprocess summaries are byte-identical to
/// in-process ones for any worker count (each worker process's record
/// cache is unobservable by design). Block size, reorder window (max(2 ×
/// n_workers, 4) blocks) and retry budget are derived: none is a setting.
struct ExecutionPolicy {
  enum class Mode {
    kInProcess,   ///< run campaigns inside this process (thread pool)
    kSubprocess,  ///< spawn worker processes, one scenario block at a time
  };
  Mode mode = Mode::kInProcess;
  /// Concurrent worker processes (subprocess mode).
  std::size_t n_workers = 2;
  /// Threads *each worker process* uses; keep n_workers × worker_threads
  /// near the machine's core count.
  std::size_t worker_threads = 1;
  /// Worker program: anything accepting `--worker` and speaking the
  /// campaign wire protocol on stdin/stdout — normally the campaign_cli
  /// binary. Required in subprocess mode.
  std::string worker_command;

  /// Extra attempts per block after a worker failure (crash, nonzero exit,
  /// unparseable output) before the campaign gives up.
  static constexpr std::size_t kMaxRetries = 2;
  /// Largest block block_size picks: about 10 MiB of records.
  static constexpr std::size_t kMaxAutoBlockReplays = std::size_t{1} << 18;

  /// Replays per worker block for a campaign of `replays`: ~4 blocks per
  /// worker (so a straggler or retried block costs a fraction of the
  /// campaign), capped at kMaxAutoBlockReplays.
  [[nodiscard]] std::size_t block_size(std::size_t replays) const;

  [[nodiscard]] static ExecutionPolicy subprocess(std::string worker_command,
                                                  std::size_t n_workers = 2) {
    ExecutionPolicy policy;
    policy.mode = Mode::kSubprocess;
    policy.n_workers = n_workers;
    policy.worker_command = std::move(worker_command);
    return policy;
  }
};

/// Execution policy a Session owns — how campaigns run, never what they
/// compute (no field here can change a summary).
struct SessionOptions {
  /// Worker threads; 0 = default_thread_count() (CAFT_THREADS env).
  std::size_t threads = 0;
  /// Where campaigns run: this process or a pool of worker processes.
  ExecutionPolicy exec;
  /// Live progress callback, fired by the campaign's CampaignFold after
  /// each folded wave (in-process) or worker block (subprocess) — counts
  /// are always of the *folded canonical prefix*, so they are monotone at
  /// any worker count. Purely
  /// observational: summaries are identical whether it is set or not, and
  /// it must never be used to steer the campaign (the one sanctioned
  /// feedback, --target-ci-width early stopping, lives in CampaignSpec).
  std::function<void(const caft::CampaignProgress&)> on_progress;
};

/// Outcome of campaigning one algorithm on one instance.
struct CampaignRun {
  std::string algorithm;  ///< registry name
  ScheduleResult result;  ///< the schedule the campaign replayed
  caft::CampaignSummary summary;
  caft::CampaignTelemetry telemetry;
  double theta_bucket_width = 0.0;  ///< width actually used (0 = exact)
};

/// One instance's campaign outcomes, in spec.algorithms order.
struct CampaignReport {
  std::vector<CampaignRun> runs;

  [[nodiscard]] const CampaignRun* find(const std::string& algorithm) const;
  /// (display label, summary) rows for campaign_table — label is the
  /// uppercased registry name ("caft" -> "CAFT").
  [[nodiscard]] std::vector<std::pair<std::string, caft::CampaignSummary>>
  summary_rows() const;
};

/// The campaign service facade. Sessions are cheap; hold one per execution
/// policy (e.g. one per thread budget in a sweep).
class Session {
 public:
  explicit Session(SessionOptions options = {});

  [[nodiscard]] const SessionOptions& options() const { return options_; }

  /// Schedules every spec.algorithms entry via the registry, campaigns each
  /// schedule under spec.sampler, returns the runs in spec order.
  /// The report's schedules reference `instance` — same lifetime rule as
  /// ScheduleResult.
  [[nodiscard]] CampaignReport evaluate(const Instance& instance,
                                        const CampaignSpec& spec) const;

  /// Campaigns one pre-built schedule (no re-scheduling) — the building
  /// block evaluate() loops over, exposed for benches that schedule once
  /// and sweep campaign configurations. Runs in this process or on worker
  /// processes as the Session's ExecutionPolicy says. Takes the result by
  /// value (it is carried into the returned run); pass a copy to keep the
  /// original.
  ///
  /// A non-null `replay_template` reuses a caller-cached ReplayEngine (the
  /// campaign server's content-addressed cache): it must have been built
  /// from `result`'s schedule and `instance`'s costs with the θ-width this
  /// spec derives, and outlive the call. It is the engine run_campaign
  /// would build itself (same cuts, same θ-width), so only construction
  /// time is saved. In-process backend only: each worker process builds
  /// that same engine for itself, so the hint is ignored there.
  [[nodiscard]] CampaignRun evaluate_schedule(
      const Instance& instance, ScheduleResult result,
      const CampaignSpec& spec,
      const caft::ReplayEngine* replay_template = nullptr) const;

 private:
  /// The subprocess coordinator behind evaluate_schedule: serializes the
  /// instance once into the work orders (no file, no temp dir), then
  /// blocks, workers, retries and the reorder window feeding one
  /// CampaignFold built from `campaign` (api/session.cpp has the details).
  [[nodiscard]] CampaignRun evaluate_schedule_subprocess(
      const Instance& instance, CampaignRun run, const CampaignSpec& spec,
      const caft::CampaignOptions& campaign) const;

  SessionOptions options_;
};

/// Executes one serialized campaign work order: reads the order from `in`,
/// loads the instance from the bytes it carries (as the campaign server
/// loads a request's), re-schedules the named algorithm
/// (bit-identical by determinism — the order's `expect` pins are verified),
/// replays the scenario block with run_campaign_block, and streams the
/// partial-result document to `out`. `campaign_cli --worker` is a thin
/// shell over this; it is exposed so tests can drive the worker protocol
/// without spawning processes.
void run_campaign_worker(std::istream& in, std::ostream& out);

}  // namespace ftsched
