#include "campaign/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "obs/obs.hpp"
#include "sim/crash_sim.hpp"
#include "sim/replay_engine.hpp"

namespace caft {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Draws a slot claims at a time in a wave's draw phase. It also sizes the
/// worker group: a range never gets more slots than it has chunks.
constexpr std::size_t kDrawChunk = 16;

/// Copies a replay's outcome into `record`; failed_count is the draw's and
/// stays as it is.
void set_outcome(ReplayRecord& record, const CrashResult& result) {
  record.success = result.success;
  record.order_deadlock = result.order_deadlock;
  record.latency = result.latency;
  record.delivered_messages = result.delivered_messages;
  record.order_relaxations = result.order_relaxations;
}

/// A wave's first miss of each canonical key, keyed into the key arena.
using WaveMisses = std::unordered_map<std::span<const double>, std::size_t,
                                      CrashTimesHash, CrashTimesEqual>;

/// How a wave's draw phase resolved one draw against the record cache.
enum class Lookup : std::uint8_t {
  kHit,            ///< the cache held its canonical key; record copied
  kExactMiss,      ///< a dead-set key the cache lacks
  kQuantizedMiss,  ///< a θ-quantized key the cache lacks
  kUnique,         ///< no canonical form: replayed as drawn, never cached
};

/// Shared core of run_campaign and run_campaign_block: executes the
/// contiguous replays [first, first + count) of the canonical scenario
/// stream in bounded waves and hands each wave's records — in canonical
/// replay order — to `sink(records, wave_size)` on the calling thread; a
/// sink that returns false stops the range after its wave (the fold's
/// early stop). The stream position is a function of (seed, first) alone:
/// the master Rng is advanced one split per replay, so any block of any
/// partition draws exactly the scenarios the full campaign would have
/// drawn at those indices. The record-cache and execution-shape counters
/// accumulate into `telemetry` as the range runs.
///
/// Each wave is a two-stage pipeline on one WorkerGroup. The draw phase
/// samples, canonicalizes and looks up disjoint chunks of wave w on every
/// slot against the cache, which no one writes during the phase, while
/// slot 0 (this thread) first hands wave w − 1 to the sink. The serial
/// step then walks wave w in draw order — in-wave duplicates, misses,
/// telemetry — its misses replay in a second phase, and their records are
/// copied and inserted in draw order. If the sink refused wave w − 1, wave
/// w was speculative: it is dropped before anything of it is counted.
template <typename Sink>
void run_replay_range(const Schedule& schedule, const CostModel& costs,
                      const ScenarioSampler& sampler,
                      const CampaignOptions& options, std::size_t first,
                      std::size_t count, CampaignTelemetry& telemetry,
                      Sink&& sink) {
  CAFT_CHECK_MSG(sampler.proc_count() == schedule.platform().proc_count(),
                 "sampler platform size does not match the schedule");
  CAFT_CHECK_MSG(schedule.complete(), "schedule is incomplete");
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

  // The prefix-cached engine is built once per campaign and shared
  // read-only by every worker (each worker owns its Scratch). A caller may
  // supply it prebuilt (the campaign server's cached replay template, the
  // same build_campaign_engine result), but it must canonicalize exactly
  // as this campaign asks.
  const ReplayEngine* engine = options.prebuilt_engine;
  std::unique_ptr<const ReplayEngine> owned_engine;
  if (engine == nullptr) {
    owned_engine =
        build_campaign_engine(schedule, costs, options.theta_bucket_width);
    engine = owned_engine.get();
  } else {
    CAFT_CHECK_MSG(
        engine->options().theta_bucket_width == options.theta_bucket_width,
        "prebuilt engine was built with a different theta_bucket_width than "
        "the campaign");
  }

  Rng master(options.seed);
  // Fast-forward to replay `first`: exactly one split per earlier replay —
  // the sampler draws from the split stream, never from the master.
  for (std::size_t i = 0; i < first; ++i) (void)master.split_seed();

  const std::size_t m = sampler.proc_count();
  const std::size_t capacity = std::min(kCampaignWave, count);
  WorkerGroup group(std::min(threads, (count + kDrawChunk - 1) / kDrawChunk));
  std::vector<std::uint64_t> seeds(capacity);  // split seed per draw
  std::vector<double> drawn(capacity * m);     // crash times, draw-major
  std::vector<double> keys(capacity * m);      // canonical forms
  std::vector<Lookup> lookups(capacity);
  // Double-buffered: the sink folds one while the next wave is drawn.
  std::vector<ReplayRecord> records[2] = {std::vector<ReplayRecord>(capacity),
                                          std::vector<ReplayRecord>(capacity)};
  // The record cache and the wave's bookkeeping are written by this thread
  // only, and never while a draw phase reads the cache.
  RecordCache cache;
  WaveMisses wave_misses;                // key -> first draw replaying it
  std::vector<std::size_t> miss_draws;   // cacheable misses, in draw order
  std::vector<std::pair<std::size_t, std::size_t>> copies;  // (draw, source)
  std::vector<std::pair<double, std::size_t>> replays;  // (first crash, draw)
  // One scratch and one scenario per worker slot, persistent across waves:
  // buffers survive, so steady-state waves allocate nothing in the kernel.
  std::vector<ReplayEngine::Scratch> scratches(group.size());
  std::vector<CrashScenario> scenarios(group.size(), CrashScenario::none(m));
  std::atomic<std::size_t> next_draw{0};

  const auto row = [m](std::vector<double>& arena, std::size_t i) {
    return std::span<double>(arena.data() + i * m, m);
  };
  // One draw of the draw phase: sample, canonicalize and look up draw i.
  const auto draw = [&](ReplayRecord* out, std::size_t i) {
    const std::span<double> times = row(drawn, i);
    const std::span<double> key = row(keys, i);
    Rng stream(seeds[i]);
    sampler.sample_into(stream, times);
    ReplayRecord record;
    record.failed_count = static_cast<std::size_t>(std::count_if(
        times.begin(), times.end(), [](double t) { return t < kInf; }));
    const ReplayEngine::Canonical kind = engine->canonicalize(times, key);
    if (kind == ReplayEngine::Canonical::kUnique) {
      lookups[i] = Lookup::kUnique;
    } else if (const auto hit = cache.find(std::span<const double>(key));
               hit != cache.end()) {
      const std::size_t failed = record.failed_count;
      record = hit->second;
      record.failed_count = failed;
      lookups[i] = Lookup::kHit;
    } else {
      lookups[i] = kind == ReplayEngine::Canonical::kQuantized
                       ? Lookup::kQuantizedMiss
                       : Lookup::kExactMiss;
    }
    out[i] = record;
  };

  std::size_t done = 0;
  const ReplayRecord* unfolded = nullptr;  // the last wave, not yet sunk
  std::size_t unfolded_size = 0;
  bool keep_going = true;
  for (std::size_t w = 0; done < count; ++w) {
    const std::size_t wave = std::min(kCampaignWave, count - done);
    obs::Span wave_span = registry.span("campaign.wave");
    const std::chrono::steady_clock::time_point wave_begin =
        std::chrono::steady_clock::now();
    ReplayRecord* const out = records[w % 2].data();

    // Split seeds are taken from the master in global replay order: neither
    // the thread schedule, the block partition nor the cache can influence
    // any draw.
    for (std::size_t i = 0; i < wave; ++i) seeds[i] = master.split_seed();
    next_draw.store(0, std::memory_order_relaxed);
    group.run([&](std::size_t slot) {
      if (slot == 0 && unfolded_size > 0)
        keep_going = sink(unfolded, unfolded_size);
      for (;;) {
        const std::size_t begin =
            next_draw.fetch_add(kDrawChunk, std::memory_order_relaxed);
        if (begin >= wave) break;
        const std::size_t end = std::min(begin + kDrawChunk, wave);
        for (std::size_t i = begin; i < end; ++i) draw(out, i);
      }
    });
    if (!keep_going) break;  // wave w was speculative: drop it uncounted

    // Resolve the wave in draw order: a miss whose key an earlier miss of
    // this wave already holds copies that miss's record; what is left
    // replays.
    copies.clear();
    replays.clear();
    for (std::size_t i = 0; i < wave; ++i) {
      const Lookup lookup = lookups[i];
      if (lookup != Lookup::kUnique) {
        ++telemetry.memo_lookups;
        if (lookup == Lookup::kHit) {
          ++telemetry.memo_hits;
          continue;
        }
        const auto [earlier, fresh] =
            wave_misses.try_emplace(row(keys, i), i);
        if (!fresh) {
          ++telemetry.memo_hits;
          copies.emplace_back(i, earlier->second);
          continue;
        }
        miss_draws.push_back(i);
        // A quantized miss replays its representative in place of the draw.
        if (lookup == Lookup::kQuantizedMiss) {
          const std::span<double> key = row(keys, i);
          std::copy(key.begin(), key.end(), row(drawn, i).begin());
        }
      }
      replays.emplace_back(ReplayEngine::first_crash(row(drawn, i)), i);
    }

    // Misses run in (earliest crash, index) order, dealt round-robin to the
    // slots. A replay restores its own cut whatever its neighbour did; the
    // order only spreads replay lengths (a later first crash restores a
    // longer prefix) evenly across the slots. Records land at their draw
    // index regardless.
    if (!replays.empty()) {
      std::sort(replays.begin(), replays.end());
      group.run([&](std::size_t slot) {
        ReplayEngine::Scratch& scratch = scratches[slot];
        CrashScenario& scenario = scenarios[slot];
        for (std::size_t j = slot; j < replays.size(); j += group.size()) {
          const std::size_t i = replays[j].second;
          const std::span<double> times = row(drawn, i);
          for (std::size_t p = 0; p < m; ++p)
            scenario.set_crash_time(ProcId(static_cast<ProcId::value_type>(p)),
                                    times[p]);
          set_outcome(out[i], engine->replay(scenario, scratch));
        }
      });
    }
    for (const auto& [i, source] : copies) {
      const std::size_t failed = out[i].failed_count;
      out[i] = out[source];
      out[i].failed_count = failed;
    }
    for (const std::size_t i : miss_draws) {
      if (cache.size() >= kRecordCacheCapacity) {
        cache.clear();
        ++telemetry.memo_evictions;
      }
      const std::span<double> key = row(keys, i);
      cache.emplace(std::vector<double>(key.begin(), key.end()), out[i]);
    }
    wave_misses.clear();
    miss_draws.clear();

    unfolded = out;
    unfolded_size = wave;
    done += wave;
    ++telemetry.blocks;

    wave_span.finish();
    const std::chrono::duration<double> wave_elapsed =
        std::chrono::steady_clock::now() - wave_begin;
    wave_seconds.observe(wave_elapsed.count());
  }
  if (keep_going && unfolded_size > 0) (void)sink(unfolded, unfolded_size);

  const std::chrono::duration<double> range_elapsed =
      std::chrono::steady_clock::now() - range_begin;
  range_span.finish();

  telemetry.memo_entries = cache.size();
  telemetry.snapshots = engine->snapshot_count();
  telemetry.workers = threads;
  telemetry.wall_seconds = range_elapsed.count();
}

}  // namespace

std::unique_ptr<const ReplayEngine> build_campaign_engine(
    const Schedule& schedule, const CostModel& costs,
    double theta_bucket_width) {
  ReplayEngineOptions options;
  options.theta_bucket_width = theta_bucket_width;
  return std::make_unique<const ReplayEngine>(schedule, costs, options);
}

void fold_replay_record(CampaignAccumulator& accumulator,
                        const ReplayRecord& record) {
  accumulator.add(record);
}

CampaignFold::CampaignFold(std::size_t eps, std::string sampler_name,
                           const CampaignOptions& options)
    : accumulator_(eps, options.quantiles),
      total_(options.replays),
      target_ci_width_(options.target_ci_width),
      on_progress_(options.on_progress) {
  CAFT_CHECK_MSG(target_ci_width_ == 0.0 ||
                     (std::isfinite(target_ci_width_) &&
                      target_ci_width_ > 0.0 && target_ci_width_ < 1.0),
                 "target CI width must be in (0, 1)");
  accumulator_.set_sampler_name(std::move(sampler_name));
}

bool CampaignFold::add(const ReplayRecord* records, std::size_t count) {
  if (stopped_) return false;
  // Fold up to the next wave boundary of the stream, then apply the stop
  // rule there: where the stream is cut into chunks never matters.
  while (count > 0 && !stopped_) {
    const std::size_t step =
        target_ci_width_ > 0.0
            ? std::min(count,
                       kCampaignWave - accumulator_.replays() % kCampaignWave)
            : count;
    for (std::size_t i = 0; i < step; ++i) accumulator_.add(records[i]);
    records += step;
    count -= step;
    if (target_ci_width_ > 0.0 && accumulator_.replays() % kCampaignWave == 0)
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
