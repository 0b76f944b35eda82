#include "campaign/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <thread>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "obs/obs.hpp"
#include "sim/crash_sim.hpp"
#include "sim/replay_engine.hpp"

namespace caft {

namespace {

ReplayRecord to_record(const CrashResult& result, std::size_t failed_count) {
  ReplayRecord record;
  record.success = result.success;
  record.order_deadlock = result.order_deadlock;
  record.latency = result.latency;
  record.delivered_messages = result.delivered_messages;
  record.order_relaxations = result.order_relaxations;
  record.failed_count = failed_count;
  return record;
}

/// Shared core of run_campaign and run_campaign_block: executes the
/// contiguous replays [first, first + count) of the canonical scenario
/// stream in bounded waves and hands each wave's records — in canonical
/// replay order — to `sink(records, wave_size)`; a sink that returns false
/// stops the range after its wave (run_campaign's --target-ci-width early
/// stopping). The stream position is a function of (seed, first) alone: the
/// master Rng is advanced one split per replay, so any block of any
/// partition draws exactly the scenarios the full campaign would have drawn
/// at those indices.
template <typename Sink>
void run_replay_range(const Schedule& schedule, const CostModel& costs,
                      const ScenarioSampler& sampler,
                      const CampaignOptions& options, std::size_t first,
                      std::size_t count, CampaignTelemetry* telemetry,
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
  obs::Counter replays_counter = registry.counter("campaign.replays");
  obs::Counter waves_counter = registry.counter("campaign.blocks");
  const std::chrono::steady_clock::time_point range_begin =
      std::chrono::steady_clock::now();

  // The prefix-cached engine is built once per campaign and shared
  // read-only by every worker (each worker owns its Scratch). With a
  // shared memo, all workers also consult one lock-free result cache. A
  // caller-supplied prebuilt engine (the campaign server's cached replay
  // template) short-circuits construction entirely — same const sharing,
  // same results, by the engine's purity contract.
  const ReplayEngine* engine = options.prebuilt_engine;
  std::unique_ptr<ReplayEngine> owned_engine;
  std::unique_ptr<SharedReplayMemo> shared_memo;
  if (engine == nullptr && options.engine == CampaignEngine::kIncremental) {
    ReplayEngineOptions engine_options;
    engine_options.theta_bucket_width = options.theta_bucket_width;
    engine_options.exact = options.exact;
    engine_options.memo_capacity = options.memo_capacity;
    if (options.adaptive_snapshots)
      engine_options.snapshot_times = sampler.first_crash_quantiles(
          engine_options.max_snapshots, schedule.horizon());
    owned_engine =
        std::make_unique<ReplayEngine>(schedule, costs, engine_options);
    engine = owned_engine.get();
  }
  if (engine != nullptr && options.memo == CampaignMemo::kShared) {
    SharedMemoOptions memo_options;
    memo_options.shards = options.memo_shards;
    memo_options.capacity = options.memo_capacity;
    shared_memo = std::make_unique<SharedReplayMemo>(memo_options);
  }

  Rng master(options.seed);
  // Fast-forward to replay `first`: exactly one split per earlier replay —
  // the sampler draws from the split stream, never from the master.
  for (std::size_t i = 0; i < first; ++i) (void)master.split();

  std::vector<CrashScenario> scenarios;
  std::vector<std::size_t> order;
  std::vector<std::size_t> group_start;
  std::vector<double> times;
  std::vector<double> firsts;
  std::vector<ReplayRecord> records;
  // One scratch per worker slot, persistent across waves: buffers and the
  // dead-set memo survive, so steady-state waves allocate nothing.
  std::vector<ReplayEngine::Scratch> scratches(threads);
  std::size_t successes = 0;
  std::size_t waves = 0;
  std::size_t done = 0;
  bool keep_going = true;
  while (done < count && keep_going) {
    const std::size_t wave = std::min(options.block, count - done);
    obs::Span wave_span = registry.span("campaign.wave");
    const std::chrono::steady_clock::time_point wave_begin =
        std::chrono::steady_clock::now();

    // Scenarios are drawn sequentially in global replay order, each from
    // its own split stream: neither the thread schedule, the block size nor
    // the engine can influence any draw.
    scenarios.clear();
    scenarios.reserve(wave);
    for (std::size_t i = 0; i < wave; ++i) {
      Rng stream = master.split();
      scenarios.push_back(sampler.sample(stream));
    }

    // Execute the wave sorted by earliest crash time, then by the full
    // crash-time vector: neighbouring replays branch from the same (or
    // adjacent) fault-free snapshots, and *identical* scenarios (a uniform-k
    // wave of 1024 draws covers only C(m, k) distinct masks) become adjacent
    // runs. Each run is replayed once and its record copied to every index —
    // sound because a record is a pure function of its scenario, so the
    // copies are bit-identical to replaying each index individually.
    // Results land in replay order regardless, so the sink below never sees
    // this order and summaries stay independent of the batching.
    // The sort comparator runs O(wave log wave) times; flatten the crash
    // times into one matrix up front so it compares raw doubles instead of
    // going through the checked per-proc accessor.
    const std::size_t m = sampler.proc_count();
    times.resize(wave * m);
    firsts.resize(wave);
    for (std::size_t i = 0; i < wave; ++i) {
      double earliest = std::numeric_limits<double>::infinity();
      for (std::size_t p = 0; p < m; ++p) {
        const double t = scenarios[i].crash_time(
            ProcId(static_cast<ProcId::value_type>(p)));
        times[i * m + p] = t;
        earliest = std::min(earliest, t);
      }
      firsts[i] = earliest;
    }
    const auto times_cmp = [&](std::size_t a, std::size_t b) {
      const double* ta = times.data() + a * m;
      const double* tb = times.data() + b * m;
      for (std::size_t p = 0; p < m; ++p)
        if (ta[p] != tb[p]) return ta[p] < tb[p] ? -1 : 1;
      return 0;
    };
    order.resize(wave);
    for (std::size_t i = 0; i < wave; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (firsts[a] != firsts[b]) return firsts[a] < firsts[b];
      const int c = times_cmp(a, b);
      if (c != 0) return c < 0;
      return a < b;
    });
    // Group boundaries of identical-scenario runs in the sorted order.
    group_start.clear();
    for (std::size_t j = 0; j < wave; ++j)
      if (j == 0 || times_cmp(order[j], order[j - 1]) != 0)
        group_start.push_back(j);
    group_start.push_back(wave);
    const std::size_t groups = group_start.size() - 1;

    records.assign(wave, ReplayRecord{});
    const std::size_t workers = std::min(threads, groups);
    const auto worker = [&](std::size_t first_slot) {
      ReplayEngine::Scratch& scratch = scratches[first_slot];
      for (std::size_t g = first_slot; g < groups; g += workers) {
        const std::size_t begin = group_start[g];
        const std::size_t end = group_start[g + 1];
        const std::size_t i = order[begin];
        // Branch instead of a ternary: the engine path returns a reference
        // (a ternary mixing it with the naive prvalue would force a copy).
        if (engine != nullptr)
          records[i] = to_record(
              engine->replay(scenarios[i], scratch, shared_memo.get()),
              scenarios[i].failed_count());
        else
          records[i] = to_record(simulate_crashes(schedule, costs,
                                                  scenarios[i]),
                                 scenarios[i].failed_count());
        for (std::size_t j = begin + 1; j < end; ++j)
          records[order[j]] = records[i];
      }
    };
    if (workers <= 1) {
      worker(0);
    } else {
      std::vector<std::thread> pool;
      pool.reserve(workers);
      for (std::size_t t = 0; t < workers; ++t) pool.emplace_back(worker, t);
      for (std::thread& thread : pool) thread.join();
    }

    keep_going = sink(records, wave);
    done += wave;
    ++waves;

    wave_span.finish();
    const std::chrono::duration<double> wave_elapsed =
        std::chrono::steady_clock::now() - wave_begin;
    wave_seconds.observe(wave_elapsed.count());
    replays_counter.add(wave);
    waves_counter.add(1);
    // Success tally and the progress callback run on the campaign thread
    // only — workers never touch them, and neither influences any replay.
    if (options.on_progress) {
      for (std::size_t i = 0; i < wave; ++i)
        if (records[i].success) ++successes;
      CampaignProgress progress;
      progress.replays_done = done;
      progress.replays_total = count;
      progress.successes = successes;
      const WilsonInterval ci = wilson_interval(successes, done);
      progress.ci_width = ci.high - ci.low;
      if (shared_memo != nullptr) {
        const SharedReplayMemo::Stats stats = shared_memo->stats();
        progress.memo_lookups = stats.lookups;
        progress.memo_hits = stats.hits;
      }
      options.on_progress(progress);
    }
  }

  const std::chrono::duration<double> range_elapsed =
      std::chrono::steady_clock::now() - range_begin;
  range_span.finish();

  // Gather memo/snapshot counters once, for both the telemetry out-param
  // and the registry fold (the registry fold happens only here for the
  // in-process backend; the subprocess coordinator folds worker partials
  // itself, so counts are never doubled).
  CampaignTelemetry gathered;
  if (shared_memo != nullptr) {
    const SharedReplayMemo::Stats stats = shared_memo->stats();
    gathered.memo_lookups = stats.lookups;
    gathered.memo_hits = stats.hits;
    gathered.memo_evictions = stats.evictions;
    gathered.memo_entries = stats.entries;
  } else {
    for (const ReplayEngine::Scratch& scratch : scratches) {
      gathered.memo_lookups += scratch.memo_lookups();
      gathered.memo_hits += scratch.memo_hits();
      gathered.memo_evictions += scratch.memo_evictions();
      gathered.memo_entries += scratch.memo_entries();
    }
  }
  if (engine != nullptr) gathered.snapshots = engine->snapshot_count();
  // `done`, not `count`: an early-stopped campaign executed (and folded)
  // only the waves up to its stopping point.
  gathered.replays = done;
  gathered.blocks = waves;
  gathered.workers = threads;
  gathered.wall_seconds = range_elapsed.count();

  if (registry.enabled()) {
    registry.counter("campaign.memo.lookups").add(gathered.memo_lookups);
    registry.counter("campaign.memo.hits").add(gathered.memo_hits);
    registry.counter("campaign.memo.evictions").add(gathered.memo_evictions);
    registry.gauge("campaign.memo.entries")
        .set(static_cast<double>(gathered.memo_entries));
    registry.gauge("campaign.snapshots")
        .set(static_cast<double>(gathered.snapshots));
    // The executed replays, not the requested `count`: an early-stopped
    // campaign would otherwise over-report its rate.
    if (gathered.wall_seconds > 0.0)
      registry.gauge("campaign.replays_per_second")
          .set(static_cast<double>(gathered.replays) / gathered.wall_seconds);
  }

  if (telemetry != nullptr) *telemetry = gathered;
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

std::vector<ReplayRecord> run_campaign_block(const Schedule& schedule,
                                             const CostModel& costs,
                                             const ScenarioSampler& sampler,
                                             const CampaignOptions& options,
                                             std::size_t first,
                                             std::size_t count,
                                             CampaignTelemetry* telemetry) {
  std::vector<ReplayRecord> all;
  all.reserve(count);
  run_replay_range(schedule, costs, sampler, options, first, count, telemetry,
                   [&](const std::vector<ReplayRecord>& records,
                       std::size_t wave) {
                     all.insert(all.end(), records.begin(),
                                records.begin() +
                                    static_cast<std::ptrdiff_t>(wave));
                     return true;  // a block is a fixed slice: never stop
                   });
  return all;
}

void run_campaign_block_streamed(
    const Schedule& schedule, const CostModel& costs,
    const ScenarioSampler& sampler, const CampaignOptions& options,
    std::size_t first, std::size_t count, CampaignTelemetry* telemetry,
    const std::function<void(const ReplayRecord* records,
                             std::size_t count)>& sink) {
  run_replay_range(schedule, costs, sampler, options, first, count, telemetry,
                   [&](const std::vector<ReplayRecord>& records,
                       std::size_t wave) {
                     sink(records.data(), wave);
                     return true;  // a block is a fixed slice: never stop
                   });
}

CampaignSummary run_campaign(const Schedule& schedule, const CostModel& costs,
                             const ScenarioSampler& sampler,
                             const CampaignOptions& options,
                             CampaignTelemetry* telemetry) {
  CAFT_CHECK_MSG(options.target_ci_width == 0.0 ||
                     (std::isfinite(options.target_ci_width) &&
                      options.target_ci_width > 0.0 &&
                      options.target_ci_width < 1.0),
                 "target CI width must be in (0, 1)");
  CampaignAccumulator accumulator(schedule.eps(), options.quantiles);
  accumulator.set_sampler_name(sampler.name());
  // Fold in replay order, one wave at a time — memory stays O(block). With
  // a target CI width the fold also answers "keep going?": the campaign
  // stops after the first wave whose folded prefix satisfies the target, so
  // the stopping point is a pure function of (seed, block) — wave
  // boundaries are, and the prefix's records are, by the determinism
  // contract above.
  std::size_t done = 0;
  std::size_t successes = 0;
  run_replay_range(schedule, costs, sampler, options, 0, options.replays,
                   telemetry,
                   [&](const std::vector<ReplayRecord>& records,
                       std::size_t wave) {
                     for (std::size_t i = 0; i < wave; ++i)
                       fold_replay_record(accumulator, records[i]);
                     if (options.target_ci_width <= 0.0) return true;
                     done += wave;
                     for (std::size_t i = 0; i < wave; ++i)
                       if (records[i].success) ++successes;
                     const WilsonInterval ci =
                         wilson_interval(successes, done);
                     return ci.high - ci.low > options.target_ci_width;
                   });
  return accumulator.summary();
}

}  // namespace caft
