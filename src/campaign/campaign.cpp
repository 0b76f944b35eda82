#include "campaign/campaign.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "obs/obs.hpp"
#include "sim/crash_sim.hpp"
#include "sim/replay_engine.hpp"

namespace caft {

namespace {

/// Copies a replay's outcome into `record`; failed_count is the draw's and
/// stays as it is.
void set_outcome(ReplayRecord& record, const CrashResult& result) {
  record.success = result.success;
  record.order_deadlock = result.order_deadlock;
  record.latency = result.latency;
  record.delivered_messages = result.delivered_messages;
  record.order_relaxations = result.order_relaxations;
}

/// Hash of a canonical crash-time vector: FNV-1a over its 64-bit words,
/// each step folding the high half into the low one — 0 and +inf differ
/// only in exponent bits, which a multiply alone never carries downward.
/// Canonical times are never -0.0 or NaN, so equal vectors have equal bits.
struct CrashTimesHash {
  std::size_t operator()(const std::vector<double>& times) const {
    std::uint64_t hash = 1469598103934665603ull;
    for (const double t : times) {
      hash = (hash ^ std::bit_cast<std::uint64_t>(t)) * 1099511628211ull;
      hash ^= hash >> 32;
    }
    return static_cast<std::size_t>(hash);
  }
};

template <typename Value>
using CrashTimesMap =
    std::unordered_map<std::vector<double>, Value, CrashTimesHash>;

/// Shared core of run_campaign and run_campaign_block: executes the
/// contiguous replays [first, first + count) of the canonical scenario
/// stream in bounded waves and hands each wave's records — in canonical
/// replay order — to `sink(records, wave_size)`; a sink that returns false
/// stops the range after its wave (the fold's early stop). The stream
/// position is a function of (seed, first) alone: the master Rng is
/// advanced one split per replay, so any block of any partition draws
/// exactly the scenarios the full campaign would have drawn at those
/// indices. The record-cache and execution-shape counters accumulate into
/// `telemetry` as the range runs.
template <typename Sink>
void run_replay_range(const Schedule& schedule, const CostModel& costs,
                      const ScenarioSampler& sampler,
                      const CampaignOptions& options, std::size_t first,
                      std::size_t count, CampaignTelemetry& telemetry,
                      Sink&& sink) {
  CAFT_CHECK_MSG(sampler.proc_count() == schedule.platform().proc_count(),
                 "sampler platform size does not match the schedule");
  CAFT_CHECK_MSG(schedule.complete(), "schedule is incomplete");
  CAFT_CHECK_MSG(options.block > 0, "block size must be positive");
  CAFT_CHECK_MSG(options.theta_bucket_width >= 0.0 &&
                     !std::isnan(options.theta_bucket_width),
                 "theta bucket width must be non-negative");

  const std::size_t threads =
      std::max<std::size_t>(1, options.threads == 0 ? default_thread_count()
                                                    : options.threads);

  // Observability is strictly write-only from here on: when the global
  // registry is disabled (the default) every call below is a relaxed load
  // plus a branch, and nothing it records ever feeds back into a replay.
  obs::Registry& registry = obs::Registry::global();
  obs::Span range_span = registry.span("campaign.range");
  obs::Histogram wave_seconds = registry.histogram("campaign.wave.seconds");
  const std::chrono::steady_clock::time_point range_begin =
      std::chrono::steady_clock::now();

  // The prefix-cached engine is built once per campaign, with its snapshots
  // placed at the sampler's first-crash quantiles, and shared read-only by
  // every worker (each worker owns its Scratch). A caller-supplied prebuilt
  // engine (the campaign server's cached replay template) short-circuits
  // construction — same const sharing, same results, by the engine's purity
  // contract — but it must canonicalize exactly as this campaign asks.
  const ReplayEngine* engine = options.prebuilt_engine;
  std::unique_ptr<ReplayEngine> owned_engine;
  if (engine == nullptr) {
    ReplayEngineOptions engine_options;
    engine_options.theta_bucket_width = options.theta_bucket_width;
    engine_options.exact = options.exact;
    engine_options.snapshot_times = sampler.first_crash_quantiles(
        engine_options.max_snapshots, schedule.horizon());
    owned_engine =
        std::make_unique<ReplayEngine>(schedule, costs, engine_options);
    engine = owned_engine.get();
  } else {
    CAFT_CHECK_MSG(
        engine->options().theta_bucket_width == options.theta_bucket_width &&
            engine->options().exact == options.exact,
        "prebuilt engine was built with a different theta_bucket_width or "
        "exact flag than the campaign");
  }

  Rng master(options.seed);
  // Fast-forward to replay `first`: exactly one split per earlier replay —
  // the sampler draws from the split stream, never from the master.
  for (std::size_t i = 0; i < first; ++i) (void)master.split();

  const std::size_t m = sampler.proc_count();
  // The record cache and the wave's bookkeeping live on this thread only;
  // workers see nothing but the engine, their Scratch and their records.
  CrashTimesMap<ReplayRecord> cache;
  CrashTimesMap<std::size_t> wave_misses;  // key -> first draw replaying it
  std::vector<std::vector<double>> miss_keys;  // cacheable misses' keys ...
  std::vector<std::size_t> miss_draws;         // ... and their draws
  std::vector<std::pair<std::size_t, std::size_t>> copies;  // (draw, source)
  std::vector<std::pair<double, std::size_t>> replays;  // (first crash, draw)
  std::vector<double> key(m);
  std::vector<CrashScenario> scenarios;
  std::vector<ReplayRecord> records;
  // One scratch per worker slot, persistent across waves: buffers survive,
  // so steady-state waves allocate nothing in the kernel.
  std::vector<ReplayEngine::Scratch> scratches(threads);
  std::size_t done = 0;
  bool keep_going = true;
  while (done < count && keep_going) {
    const std::size_t wave = std::min(options.block, count - done);
    obs::Span wave_span = registry.span("campaign.wave");
    const std::chrono::steady_clock::time_point wave_begin =
        std::chrono::steady_clock::now();

    // Scenarios are drawn sequentially in global replay order, each from
    // its own split stream: neither the thread schedule, the block size nor
    // the cache can influence any draw.
    scenarios.clear();
    scenarios.reserve(wave);
    for (std::size_t i = 0; i < wave; ++i) {
      Rng stream = master.split();
      scenarios.push_back(sampler.sample(stream));
    }

    // Resolve every draw against the cache, or against an earlier miss of
    // this wave with the same canonical scenario; what is left replays.
    records.assign(wave, ReplayRecord{});
    copies.clear();
    replays.clear();
    for (std::size_t i = 0; i < wave; ++i) {
      CrashScenario& scenario = scenarios[i];
      const std::size_t failed = scenario.failed_count();
      records[i].failed_count = failed;
      const ReplayEngine::Canonical kind = engine->canonicalize(scenario, key);
      if (kind != ReplayEngine::Canonical::kUnique) {
        ++telemetry.memo_lookups;
        if (const auto hit = cache.find(key); hit != cache.end()) {
          ++telemetry.memo_hits;
          records[i] = hit->second;
          records[i].failed_count = failed;
          continue;
        }
        const auto [earlier, fresh] = wave_misses.try_emplace(key, i);
        if (!fresh) {
          ++telemetry.memo_hits;
          copies.emplace_back(i, earlier->second);
          continue;
        }
        miss_keys.push_back(key);
        miss_draws.push_back(i);
        // A quantized miss replays its representative in place of the draw.
        if (kind == ReplayEngine::Canonical::kQuantized)
          scenario = CrashScenario(key);
      }
      replays.emplace_back(ReplayEngine::first_crash(scenario), i);
    }

    // Misses run in (earliest crash, index) order, dealt round-robin to the
    // workers: neighbouring replays branch from the same (or adjacent)
    // fault-free snapshots. Records land at their draw index regardless.
    if (!replays.empty()) {
      std::sort(replays.begin(), replays.end());
      const std::size_t workers = std::min(threads, replays.size());
      run_on_threads(workers, [&](std::size_t slot) {
        ReplayEngine::Scratch& scratch = scratches[slot];
        for (std::size_t j = slot; j < replays.size(); j += workers) {
          const std::size_t i = replays[j].second;
          set_outcome(records[i], engine->replay(scenarios[i], scratch));
        }
      });
    }
    for (const auto& [i, source] : copies) {
      const std::size_t failed = records[i].failed_count;
      records[i] = records[source];
      records[i].failed_count = failed;
    }
    for (std::size_t j = 0; j < miss_draws.size(); ++j) {
      if (cache.size() >= kRecordCacheCapacity) {
        cache.clear();
        ++telemetry.memo_evictions;
      }
      cache.emplace(std::move(miss_keys[j]), records[miss_draws[j]]);
    }
    wave_misses.clear();
    miss_keys.clear();
    miss_draws.clear();

    keep_going = sink(records.data(), wave);
    done += wave;
    ++telemetry.blocks;

    wave_span.finish();
    const std::chrono::duration<double> wave_elapsed =
        std::chrono::steady_clock::now() - wave_begin;
    wave_seconds.observe(wave_elapsed.count());
  }

  const std::chrono::duration<double> range_elapsed =
      std::chrono::steady_clock::now() - range_begin;
  range_span.finish();

  telemetry.memo_entries = cache.size();
  telemetry.snapshots = engine->snapshot_count();
  telemetry.workers = threads;
  telemetry.wall_seconds = range_elapsed.count();
}

}  // namespace

void fold_replay_record(CampaignAccumulator& accumulator,
                        const ReplayRecord& record) {
  CrashResult result;
  result.success = record.success;
  result.order_deadlock = record.order_deadlock;
  result.latency = record.latency;
  result.delivered_messages = record.delivered_messages;
  result.order_relaxations = record.order_relaxations;
  accumulator.add(record.failed_count, result);
}

CampaignFold::CampaignFold(std::size_t eps, std::string sampler_name,
                           const CampaignOptions& options)
    : accumulator_(eps, options.quantiles),
      total_(options.replays),
      block_(options.block),
      target_ci_width_(options.target_ci_width),
      on_progress_(options.on_progress) {
  CAFT_CHECK_MSG(target_ci_width_ == 0.0 ||
                     (std::isfinite(target_ci_width_) &&
                      target_ci_width_ > 0.0 && target_ci_width_ < 1.0),
                 "target CI width must be in (0, 1)");
  CAFT_CHECK_MSG(block_ > 0, "block size must be positive");
  accumulator_.set_sampler_name(std::move(sampler_name));
}

bool CampaignFold::add(const ReplayRecord* records, std::size_t count) {
  if (stopped_) return false;
  // Fold up to the next block boundary of the stream, then apply the stop
  // rule there: where the stream is cut into chunks never matters.
  while (count > 0 && !stopped_) {
    const std::size_t step =
        target_ci_width_ > 0.0
            ? std::min(count, block_ - accumulator_.replays() % block_)
            : count;
    for (std::size_t i = 0; i < step; ++i)
      fold_replay_record(accumulator_, records[i]);
    records += step;
    count -= step;
    if (target_ci_width_ > 0.0 && accumulator_.replays() % block_ == 0)
      stopped_ = ci_width() <= target_ci_width_;
  }
  telemetry_.replays = accumulator_.replays();
  if (on_progress_) {
    CampaignProgress progress;
    progress.replays_done = accumulator_.replays();
    progress.replays_total = total_;
    progress.successes = accumulator_.successes();
    progress.memo_lookups = telemetry_.memo_lookups;
    progress.memo_hits = telemetry_.memo_hits;
    progress.ci_width = ci_width();
    on_progress_(progress);
  }
  return !stopped_;
}

double CampaignFold::ci_width() const {
  const WilsonInterval ci =
      wilson_interval(accumulator_.successes(), accumulator_.replays());
  return ci.high - ci.low;
}

void CampaignFold::export_metrics() const {
  obs::Registry& registry = obs::Registry::global();
  if (!registry.enabled()) return;
  registry.counter("campaign.replays").add(telemetry_.replays);
  registry.counter("campaign.blocks").add(telemetry_.blocks);
  registry.counter("campaign.memo.lookups").add(telemetry_.memo_lookups);
  registry.counter("campaign.memo.hits").add(telemetry_.memo_hits);
  registry.counter("campaign.memo.evictions").add(telemetry_.memo_evictions);
  registry.gauge("campaign.memo.entries")
      .set(static_cast<double>(telemetry_.memo_entries));
  registry.gauge("campaign.snapshots")
      .set(static_cast<double>(telemetry_.snapshots));
  // The folded replays, not the requested total: an early-stopped campaign
  // would otherwise over-report its rate.
  if (telemetry_.wall_seconds > 0.0)
    registry.gauge("campaign.replays_per_second")
        .set(static_cast<double>(telemetry_.replays) /
             telemetry_.wall_seconds);
}

void run_campaign_block(
    const Schedule& schedule, const CostModel& costs,
    const ScenarioSampler& sampler, const CampaignOptions& options,
    std::size_t first, std::size_t count, CampaignTelemetry* telemetry,
    const std::function<void(const ReplayRecord* records,
                             std::size_t count)>& sink) {
  CampaignTelemetry gathered;
  run_replay_range(schedule, costs, sampler, options, first, count, gathered,
                   [&](const ReplayRecord* records, std::size_t wave) {
                     sink(records, wave);
                     return true;  // a block is a fixed slice: never stop
                   });
  if (telemetry != nullptr) *telemetry = gathered;
}

CampaignSummary run_campaign(const Schedule& schedule, const CostModel& costs,
                             const ScenarioSampler& sampler,
                             const CampaignOptions& options,
                             CampaignTelemetry* telemetry) {
  CampaignFold fold(schedule.eps(), sampler.name(), options);
  run_replay_range(schedule, costs, sampler, options, 0, options.replays,
                   fold.telemetry(),
                   [&fold](const ReplayRecord* records, std::size_t wave) {
                     return fold.add(records, wave);
                   });
  fold.export_metrics();
  if (telemetry != nullptr) *telemetry = fold.telemetry();
  return fold.summary();
}

}  // namespace caft
