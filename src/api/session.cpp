#include "api/session.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <istream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/subprocess.hpp"
#include "api/campaign_wire.hpp"
#include "obs/obs.hpp"

namespace ftsched {

SamplerSpec SamplerSpec::uniform_k(std::size_t k) {
  SamplerSpec spec;
  spec.kind = Kind::kUniformK;
  spec.failures = k;
  return spec;
}

SamplerSpec SamplerSpec::exponential(double rate, double horizon) {
  SamplerSpec spec;
  spec.kind = Kind::kExponential;
  spec.rate = rate;
  spec.horizon = horizon;
  return spec;
}

SamplerSpec SamplerSpec::weibull(double shape, double scale, double horizon) {
  SamplerSpec spec;
  spec.kind = Kind::kWeibull;
  spec.shape = shape;
  spec.scale = scale;
  spec.horizon = horizon;
  return spec;
}

SamplerSpec SamplerSpec::window(std::size_t k, double theta_lo,
                                double theta_hi) {
  SamplerSpec spec;
  spec.kind = Kind::kWindow;
  spec.failures = k;
  spec.theta_lo = theta_lo;
  spec.theta_hi = theta_hi;
  return spec;
}

SamplerSpec SamplerSpec::groups(std::size_t group_size, double group_prob,
                                double theta_lo, double theta_hi) {
  SamplerSpec spec;
  spec.kind = Kind::kGroups;
  spec.group_size = group_size;
  spec.group_prob = group_prob;
  spec.theta_lo = theta_lo;
  spec.theta_hi = theta_hi;
  return spec;
}

std::unique_ptr<caft::ScenarioSampler> SamplerSpec::build(
    std::size_t procs) const {
  switch (kind) {
    case Kind::kUniformK:
      return std::make_unique<caft::UniformKSampler>(procs, failures);
    case Kind::kExponential:
      return std::make_unique<caft::ExponentialLifetimeSampler>(procs, rate,
                                                                horizon);
    case Kind::kWeibull:
      return std::make_unique<caft::WeibullLifetimeSampler>(procs, shape,
                                                            scale, horizon);
    case Kind::kWindow:
      return std::make_unique<caft::CrashWindowSampler>(procs, failures,
                                                        theta_lo, theta_hi);
    case Kind::kGroups:
      return std::make_unique<caft::CorrelatedGroupSampler>(
          procs, group_size, group_prob, theta_lo, theta_hi);
  }
  throw caft::CheckError("unhandled sampler kind");
}

double CampaignSpec::theta_bucket_width(double schedule_horizon) const {
  // An exact campaign never consults the width, so it derives none — a
  // derivation would (correctly) throw on the degenerate horizons the exact
  // path exists to serve.
  if (exact || theta_buckets == 0) return 0.0;
  // A zero or non-finite horizon (empty instance, fully-dead schedule)
  // admits no bucket width: horizon / buckets would be 0, inf or NaN, and a
  // 0-width bucket silently degenerates to exact replays while inf/NaN
  // poison every quantized crash time. Refuse loudly; the exact path is
  // the meaningful option for such schedules.
  CAFT_CHECK_MSG(
      std::isfinite(schedule_horizon) && schedule_horizon > 0.0,
      "theta buckets are underivable for a zero or non-finite schedule "
      "horizon — run such schedules exact (CampaignSpec::exact / --exact)");
  return schedule_horizon / static_cast<double>(theta_buckets);
}

std::size_t ExecutionPolicy::block_size(std::size_t replays) const {
  const std::size_t blocks = 4 * std::max<std::size_t>(n_workers, 1);
  return std::clamp<std::size_t>((replays + blocks - 1) / blocks, 1,
                                 kMaxAutoBlockReplays);
}

const CampaignRun* CampaignReport::find(const std::string& algorithm) const {
  for (const CampaignRun& run : runs)
    if (run.algorithm == algorithm) return &run;
  return nullptr;
}

std::vector<std::pair<std::string, caft::CampaignSummary>>
CampaignReport::summary_rows() const {
  std::vector<std::pair<std::string, caft::CampaignSummary>> rows;
  rows.reserve(runs.size());
  for (const CampaignRun& run : runs)
    rows.emplace_back(display_name(run.algorithm), run.summary);
  return rows;
}

Session::Session(SessionOptions options) : options_(options) {}

namespace {

/// The spec checks every campaign entry point applies, whichever backend
/// runs it — evaluate and evaluate_schedule both funnel through here so a
/// spec rejected by one path is rejected by all of them. The target CI
/// width is checked where it is used, by CampaignFold.
void validate_campaign_spec(const CampaignSpec& spec) {
  CAFT_CHECK_MSG(spec.replays > 0, "campaign replays must be positive");
}

/// The one CampaignSpec -> CampaignOptions derivation. The coordinator and
/// every subprocess worker build their options here, so both sides replay
/// with the same θ-width bit for bit (the worker pins the horizon).
caft::CampaignOptions campaign_options(const CampaignSpec& spec,
                                       double schedule_horizon,
                                       std::size_t threads) {
  caft::CampaignOptions campaign;
  campaign.replays = spec.replays;
  campaign.seed = spec.seed;
  campaign.quantiles = spec.quantiles;
  campaign.threads = threads;
  campaign.theta_bucket_width = spec.theta_bucket_width(schedule_horizon);
  campaign.target_ci_width = spec.target_ci_width;
  return campaign;
}

}  // namespace

CampaignRun Session::evaluate_schedule(
    const Instance& instance, ScheduleResult result, const CampaignSpec& spec,
    const caft::ReplayEngine* replay_template) const {
  validate_campaign_spec(spec);

  CampaignRun run{.algorithm = result.algorithm,
                  .result = std::move(result),
                  .summary = {},
                  .telemetry = {},
                  .theta_bucket_width = 0.0};
  caft::CampaignOptions campaign = campaign_options(
      spec, run.result.schedule.horizon(), options_.threads);
  campaign.on_progress = options_.on_progress;
  run.theta_bucket_width = campaign.theta_bucket_width;
  if (options_.exec.mode == ExecutionPolicy::Mode::kSubprocess)
    return evaluate_schedule_subprocess(instance, std::move(run), spec,
                                        campaign);

  const auto sampler = spec.sampler.build(instance.proc_count());
  campaign.prebuilt_engine = replay_template;
  run.summary = run_campaign(run.result.schedule, instance.costs(), *sampler,
                             campaign, &run.telemetry);
  return run;
}

CampaignReport Session::evaluate(const Instance& instance,
                                 const CampaignSpec& spec) const {
  CAFT_CHECK_MSG(!spec.algorithms.empty(),
                 "campaign spec names no algorithms");
  validate_campaign_spec(spec);
  const SchedulerRegistry& registry = SchedulerRegistry::global();
  CampaignReport report;
  report.runs.reserve(spec.algorithms.size());
  for (const std::string& algorithm : spec.algorithms) {
    ScheduleResult result =
        registry.make(algorithm)->schedule(instance, spec.request);
    report.runs.push_back(evaluate_schedule(instance, std::move(result), spec));
  }
  return report;
}

CampaignRun Session::evaluate_schedule_subprocess(
    const Instance& instance, CampaignRun run, const CampaignSpec& spec,
    const caft::CampaignOptions& campaign) const {
  const ExecutionPolicy& exec = options_.exec;
  CAFT_CHECK_MSG(!exec.worker_command.empty(),
                 "subprocess execution needs ExecutionPolicy::worker_command "
                 "(a campaign_cli-compatible binary)");
  CAFT_CHECK_MSG(exec.n_workers > 0,
                 "subprocess execution needs at least one worker");

  // Hand the instance to workers inline, serialized once per campaign in
  // the archival text format (exact double round-trip); scheduling is
  // deterministic, so every worker rebuilds the coordinator's schedule
  // bit-for-bit — and proves it against the `expect` pins below.
  std::ostringstream instance_text;
  instance.save(instance_text);

  // Work-order template shared by every block.
  CampaignWorkOrder order;
  order.instance_bytes = instance_text.str();
  order.algorithm = run.algorithm;
  order.spec = spec;
  // Pin the resolved ε and model: the worker re-schedules from the raw
  // instance text, which carries neither RunOptions field.
  order.spec.request.eps = run.result.eps;
  order.spec.request.model = run.result.schedule.model();
  order.threads = exec.worker_threads;
  order.expect_makespan = run.result.makespan;
  order.expect_horizon = run.result.schedule.horizon();

  // Contiguous blocks of the canonical scenario stream. The partition is
  // invisible in the summary (any partition folds to the same stream); it
  // only sets the retry/straggler granularity.
  const std::size_t chunk = exec.block_size(spec.replays);
  struct Block {
    std::size_t first;
    std::size_t count;
  };
  std::vector<Block> blocks;
  for (std::size_t first = 0; first < spec.replays; first += chunk)
    blocks.push_back({first, std::min(chunk, spec.replays - first)});

  // Streaming fold state. Completed partials enter a reorder window keyed
  // by block index; whenever the window holds the fold frontier
  // (next_to_fold), that block goes to the campaign's CampaignFold — the
  // one an in-process run uses, so the summary and any early stop are
  // byte-identical to that run — and is freed. Claims are gated on the
  // same frontier — a dispatcher may only claim block b while
  // b < next_to_fold + window — so at any instant the blocks past the
  // frontier (in a worker, in the window, or both) number at most
  // `window`: coordinator memory is O(window × block), never O(replays).
  // Deadlock-free because claims are monotone and a claimed block either
  // folds (advancing the frontier and waking waiters) or fails the
  // campaign (also waking waiters): the frontier block is always claimed
  // and always progressing.
  const std::size_t window = std::max<std::size_t>(2 * exec.n_workers, 4);
  caft::CampaignFold fold(run.result.schedule.eps(),
                          spec.sampler.name(instance.proc_count()), campaign);

  std::mutex fold_mutex;  ///< guards everything in this block
  std::condition_variable fold_cv;
  std::map<std::size_t, CampaignPartialResult> reorder;
  std::size_t next_to_fold = 0;   ///< first block not yet folded
  std::size_t next_to_claim = 0;  ///< first block not yet claimed
  std::size_t window_peak = 0;    ///< most blocks `reorder` ever held
  std::size_t blocks_buffered = 0;  ///< completions that had to wait
  double worker_replay_seconds = 0.0;
  std::atomic<bool> failed{false};
  std::string error;

  // Observability is strictly write-only: the registry is disabled unless a
  // consumer turned it on, spans/counters never steer dispatch, and the
  // fold fires the progress callback under the fold mutex with
  // canonical-prefix counts (monotone by construction).
  obs::Registry& registry = obs::Registry::global();
  obs::Span coordinator_span = registry.span("campaign.subprocess", order.algorithm);
  obs::Span fold_span = registry.span("campaign.fold");
  obs::Counter retries_counter = registry.counter("campaign.worker.retries");
  obs::Histogram block_seconds =
      registry.histogram("campaign.worker.block.seconds");
  const std::chrono::steady_clock::time_point campaign_begin =
      std::chrono::steady_clock::now();
  std::atomic<std::size_t> retries_total{0};

  // Claim the next block index, or size() when the dispatcher should exit
  // (campaign failed, early stop, or no blocks left). Blocks until the
  // claim fits the reorder window.
  const auto claim = [&]() -> std::size_t {
    std::unique_lock<std::mutex> lock(fold_mutex);
    fold_cv.wait(lock, [&] {
      return failed.load() || fold.stopped() ||
             next_to_claim >= blocks.size() ||
             next_to_claim < next_to_fold + window;
    });
    if (failed.load() || fold.stopped() || next_to_claim >= blocks.size())
      return blocks.size();
    return next_to_claim++;
  };

  // Hand a completed block to the reorder window and drain the fold
  // frontier. Folding under the mutex is deliberate: the fold is a
  // strictly sequential structure, and a fold step is microseconds next to
  // the subprocess replay that produced the block. Once the fold has
  // stopped, blocks that were already claimed still drain the window, but
  // their records are discarded.
  const auto complete = [&](std::size_t b, CampaignPartialResult partial) {
    const std::lock_guard<std::mutex> lock(fold_mutex);
    if (b != next_to_fold) ++blocks_buffered;
    reorder.emplace(b, std::move(partial));
    window_peak = std::max(window_peak, reorder.size());
    for (auto it = reorder.find(next_to_fold); it != reorder.end();
         it = reorder.find(next_to_fold)) {
      const CampaignPartialResult& ready = it->second;
      if (!fold.stopped()) {
        // Telemetry sums across workers (snapshots are per-engine: max —
        // every worker builds the same engine).
        caft::CampaignTelemetry& telemetry = fold.telemetry();
        telemetry.memo_lookups += ready.telemetry.memo_lookups;
        telemetry.memo_hits += ready.telemetry.memo_hits;
        telemetry.memo_evictions += ready.telemetry.memo_evictions;
        telemetry.memo_entries += ready.telemetry.memo_entries;
        telemetry.snapshots =
            std::max(telemetry.snapshots, ready.telemetry.snapshots);
        ++telemetry.blocks;
        if (ready.timing.present)
          worker_replay_seconds += ready.timing.replay_seconds;
        fold.add(ready.records.data(), ready.records.size());
      }
      reorder.erase(it);
      ++next_to_fold;
    }
    fold_cv.notify_all();  // frontier may have moved: gated claims proceed
  };

  // One dispatcher thread per worker slot: claim a block, spawn a worker
  // process for it, stream its stdout into an incremental parser, retry on
  // any failure (crash, nonzero exit, garbage or truncated output, wrong
  // block echoed back), give up after the retry budget and fail the whole
  // campaign loudly.
  const auto dispatch = [&](std::size_t slot) {
    // One trace track per worker slot: every spawn/retry span of this slot
    // lands on it, so Perfetto shows the pool's occupancy directly.
    const std::uint32_t track = 100 + static_cast<std::uint32_t>(slot);
    registry.set_track_label(track, "worker-slot-" + std::to_string(slot));
    for (std::size_t b = claim(); b < blocks.size(); b = claim()) {
      CampaignWorkOrder block_order = order;
      block_order.first = blocks[b].first;
      block_order.count = blocks[b].count;
      std::ostringstream doc;
      write_campaign_work_order(doc, block_order);

      std::string last_failure;
      bool done = false;
      // `!failed` also here: once any block exhausts its budget the
      // campaign is doomed — don't keep spawning retries for it.
      for (std::size_t attempt = 0;
           attempt <= ExecutionPolicy::kMaxRetries && !done && !failed.load();
           ++attempt) {
        if (attempt > 0) {
          retries_counter.add(1);
          retries_total.fetch_add(1, std::memory_order_relaxed);
        }
        const double attempt_begin_us = registry.now_us();
        const std::chrono::steady_clock::time_point attempt_begin =
            std::chrono::steady_clock::now();
        // Worker stdout streams into the incremental reader as it arrives:
        // the coordinator never holds a block's full wire text next to its
        // parsed records (the reader latches parse errors; take() below
        // throws them, after the child is reaped).
        CampaignPartialReader reader;
        const caft::SubprocessResult child = caft::run_subprocess(
            {exec.worker_command, "--worker"}, doc.str(),
            [&reader](const char* data, std::size_t size) {
              reader.feed(data, size);
            });
        if (!child.ok()) {
          last_failure = child.describe_failure();
          if (registry.tracing())
            registry.complete_event(
                "worker.spawn.failed[" + std::to_string(blocks[b].first) +
                    "," + std::to_string(blocks[b].count) + ")",
                attempt_begin_us, registry.now_us() - attempt_begin_us,
                track);
          continue;
        }
        try {
          CampaignPartialResult partial = reader.take();
          CAFT_CHECK_MSG(partial.algorithm == block_order.algorithm,
                         "worker answered for algorithm " +
                             wire::quote(partial.algorithm));
          CAFT_CHECK_MSG(partial.first == block_order.first &&
                             partial.count == block_order.count,
                         "worker answered the wrong scenario block");
          complete(b, std::move(partial));
          done = true;
        } catch (const std::exception& parse_error) {
          last_failure = parse_error.what();
        }
        const std::chrono::duration<double> attempt_elapsed =
            std::chrono::steady_clock::now() - attempt_begin;
        if (registry.tracing())
          registry.complete_event(
              std::string(done ? "worker.block[" : "worker.retry[") +
                  std::to_string(blocks[b].first) + "," +
                  std::to_string(blocks[b].count) + ")",
              attempt_begin_us, registry.now_us() - attempt_begin_us, track);
        if (done) block_seconds.observe(attempt_elapsed.count());
      }
      if (!done) {
        const std::lock_guard<std::mutex> lock(fold_mutex);
        if (error.empty())
          error = "campaign worker failed on scenario block [" +
                  std::to_string(blocks[b].first) + ", " +
                  std::to_string(blocks[b].first + blocks[b].count) +
                  ") after " +
                  std::to_string(ExecutionPolicy::kMaxRetries + 1) +
                  " attempts: " + last_failure;
        failed.store(true);
        fold_cv.notify_all();  // wake window-gated claimers to exit
      }
    }
  };
  const std::size_t dispatchers = std::min(exec.n_workers, blocks.size());
  caft::run_on_threads(dispatchers, dispatch);
  if (failed.load()) throw caft::CheckError(error);
  // Every claimed block drained: claims are monotone, so the fold saw the
  // contiguous canonical prefix [0, next_to_claim) and kept the part up to
  // its stopping point — the invariant that makes an early-stopped summary
  // a truncated-campaign summary, not a subsampled one.
  CAFT_CHECK_MSG(next_to_fold == next_to_claim && reorder.empty(),
                 "streaming fold frontier did not drain");
  run.summary = fold.summary();
  fold_span.finish();

  // Execution-shape telemetry: same fields the in-process backend reports,
  // so a CampaignRun reads identically whichever backend produced it.
  const std::chrono::duration<double> campaign_elapsed =
      std::chrono::steady_clock::now() - campaign_begin;
  caft::CampaignTelemetry& telemetry = fold.telemetry();
  telemetry.workers = dispatchers;
  telemetry.worker_retries = retries_total.load();
  telemetry.wall_seconds = campaign_elapsed.count();
  telemetry.fold_window_peak = window_peak;
  run.telemetry = telemetry;
  coordinator_span.finish();

  // Worker processes run with *their* registries disabled, so the
  // coordinator's fold is the single place their counters reach this
  // process's metrics.
  fold.export_metrics();
  if (registry.enabled()) {
    registry.gauge("campaign.fold.window_peak")
        .set(static_cast<double>(window_peak));
    registry.counter("campaign.fold.blocks_buffered").add(blocks_buffered);
    if (worker_replay_seconds > 0.0)
      registry.gauge("campaign.worker.replay_seconds_total")
          .set(worker_replay_seconds);
  }
  return run;
}

void run_campaign_worker(std::istream& in, std::ostream& out) {
  // Worker-side timings ride back on the partial's optional `timing` line.
  // steady_clock, measured unconditionally (the cost is three clock reads
  // per block) — whether anyone *records* them is the coordinator's call.
  const std::chrono::steady_clock::time_point worker_begin =
      std::chrono::steady_clock::now();
  const CampaignWorkOrder order = read_campaign_work_order(in);
  std::istringstream instance_text(order.instance_bytes);
  const Instance instance = Instance::load(instance_text);
  const auto scheduler = SchedulerRegistry::global().make(order.algorithm);
  const ScheduleResult scheduled =
      scheduler->schedule(instance, order.spec.request);
  // Determinism pins: the schedule this worker replays must be bit-for-bit
  // the coordinator's. A mismatch means environment drift (mixed binaries,
  // different code) that would silently corrupt the campaign — refuse.
  if (!std::isnan(order.expect_makespan))
    CAFT_CHECK_MSG(scheduled.makespan == order.expect_makespan,
                   "worker schedule diverged from the coordinator's "
                   "(makespan mismatch — mixed worker binaries?)");
  const double horizon = scheduled.schedule.horizon();
  if (!std::isnan(order.expect_horizon))
    CAFT_CHECK_MSG(horizon == order.expect_horizon,
                   "worker schedule diverged from the coordinator's "
                   "(horizon mismatch — mixed worker binaries?)");

  const auto sampler = order.spec.sampler.build(instance.proc_count());
  // The horizon is pinned above, so these options match the coordinator's.
  const caft::CampaignOptions campaign =
      campaign_options(order.spec, horizon, order.threads);

  // Stream the partial document: header up front, each completed wave's
  // records the moment they exist, the mergeable fold state (`counts`) and
  // telemetry/timing as the footer. The worker never materialises the
  // whole block, so its memory — like the coordinator's — is bounded by
  // caft::kCampaignWave, not the block size. Flushing per wave is what
  // lets the coordinator's incremental reader overlap parsing with the
  // replay.
  caft::CampaignTelemetry telemetry;
  std::size_t successes = 0;
  std::size_t written = 0;
  write_campaign_partial_header(out, order.algorithm, order.first,
                                order.count);
  const std::chrono::steady_clock::time_point replay_begin =
      std::chrono::steady_clock::now();
  run_campaign_block(
      scheduled.schedule, instance.costs(), *sampler, campaign, order.first,
      order.count, &telemetry,
      [&](const caft::ReplayRecord* records, std::size_t count) {
        write_campaign_partial_records(out, records, count);
        out.flush();
        for (std::size_t i = 0; i < count; ++i)
          if (records[i].success) ++successes;
        written += count;
      });
  const std::chrono::steady_clock::time_point worker_end =
      std::chrono::steady_clock::now();
  WorkerTiming timing;
  timing.present = true;
  timing.schedule_seconds =
      std::chrono::duration<double>(replay_begin - worker_begin).count();
  timing.replay_seconds =
      std::chrono::duration<double>(worker_end - replay_begin).count();
  timing.wall_seconds =
      std::chrono::duration<double>(worker_end - worker_begin).count();
  write_campaign_partial_footer(out, written, successes, telemetry, timing);
  out.flush();
}

}  // namespace ftsched
