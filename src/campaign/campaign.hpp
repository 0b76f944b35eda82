/// \file campaign.hpp
/// Monte-Carlo fault-injection campaign: fans N crash replays of one
/// committed schedule across worker threads and folds the outcomes into a
/// streaming CampaignSummary (campaign/stats.hpp).
///
/// Where the paper re-executes each schedule under a *single* uniformly
/// drawn crash set per repetition (Section 6, "With c Crash"), a campaign
/// asks the distributional questions: empirical success probability with a
/// confidence interval, latency quantiles under stochastic lifetimes,
/// behaviour beyond ε failures.
///
/// Determinism contract (same as run_experiment): every replay owns a
/// pre-split Rng stream, its seed split from the master stream in replay
/// order, and the fold also happens in replay order — so the summary is
/// bit-for-bit identical for 1 thread and N threads and for any partition
/// of the stream into worker blocks.
/// Which thread draws a scenario never matters: a draw is a pure function
/// of its split seed. Replays run on the prefix-cached ReplayEngine
/// (sim/replay_engine.hpp), which is replay-for-replay bit-identical to
/// simulate_crashes, the oracle the tests compare whole campaigns against.
/// θ-quantization (CampaignOptions::theta_bucket_width) is the one knob
/// that changes the summary — deterministically, never as a function of
/// threads. Replays are simulated in waves of kCampaignWave, so memory stays
/// O(kCampaignWave + threads) plus the bounded record cache below, not
/// O(replays).
/// run_campaign_block, the subprocess worker's half, streams each wave's
/// records to a sink instead of returning the block, so a worker is
/// bounded the same way.
///
/// One fold: run_campaign (wave by wave) and the subprocess coordinator
/// (api/session.cpp, block by block) feed the same CampaignFold, so the
/// backends share one accumulator, stop rule, progress and metrics export.
///
/// Pipeline: each wave is drawn in parallel on one persistent WorkerGroup
/// (common/parallel.hpp) — every slot samples, canonicalizes and looks up
/// its chunks of the wave — while the calling thread first hands the
/// previous wave's records to the fold (or sink), which therefore always
/// runs on the calling thread, in replay order. When the fold stops early,
/// the wave drawn alongside it was speculative and is dropped before any
/// of its counters are committed, so telemetry matches a run that never
/// drew it.
///
/// Record cache: a draw whose scenario has a canonical form
/// (ReplayEngine::canonicalize — a dead-from-start set, or θ-quantized
/// crash times) is looked up in one bounded cache. A UniformKSampler on
/// m <= 64 draws only dead sets, so its draws are 64-bit dead-processor
/// masks from the sampler on, and the cache is keyed by the mask; every
/// other campaign (θ draws, m > 64) carries crash-time rows and keys the
/// cache by the canonical row (RecordCache). Both keep the same capacity
/// and clear-and-refill policy, so the telemetry is the same either way.
/// The draw phase only reads the cache, from every slot; a hit copies the
/// cached record. After the phase the calling thread walks the
/// wave in draw order: a miss whose key an earlier miss of the same wave
/// holds copies that miss's record, and the remaining misses are replayed,
/// ordered by earliest crash time (the longest replays first) and taken
/// one at a time off a shared cursor by whichever slot is free, then
/// inserted in draw order.
/// Records are still folded in replay order, so neither the cache, its
/// lookup threads nor the execution order is observable. A record is a
/// pure function of its canonical scenario, which is what makes the copies
/// bit-identical to replaying every draw.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "campaign/scenario_sampler.hpp"
#include "campaign/stats.hpp"
#include "platform/cost_model.hpp"
#include "sched/schedule.hpp"

namespace caft {

class ReplayEngine;  // sim/replay_engine.hpp (CampaignOptions hook below)

/// Live progress of a campaign, delivered by CampaignFold after each chunk
/// it folds (a wave in-process, a worker block in the subprocess backend).
/// Observability only:
/// consumers may print heartbeats from it but must never feed it back into
/// scheduling or replay decisions — the summary does not depend on whether
/// anyone listens.
struct CampaignProgress {
  std::size_t replays_done = 0;   ///< replays folded so far
  std::size_t replays_total = 0;  ///< campaign size
  std::size_t successes = 0;      ///< successful replays among done
  std::uint64_t memo_lookups = 0;  ///< record-cache lookups so far
  std::uint64_t memo_hits = 0;     ///< draws served without a replay so far
  /// Width of the Wilson 95% interval around the success rate of the folded
  /// prefix (1.0 until anything folds). What --target-ci-width early
  /// stopping watches; observational like every other field here.
  double ci_width = 1.0;
};

/// Knobs of one campaign run.
struct CampaignOptions {
  std::size_t replays = 1000;
  std::uint64_t seed = 20080201;
  /// Worker threads; 0 = default_thread_count() (CAFT_THREADS env, else
  /// hardware concurrency).
  std::size_t threads = 0;
  /// Latency quantiles to estimate, each in (0, 1).
  std::vector<double> quantiles = {0.5, 0.9, 0.99};
  /// θ-quantization bucket width; 0 (the default) keeps every replay
  /// bit-exact. With a positive width, crash-at-θ scenarios are replayed as
  /// bucket-midpoint representatives and cached — summaries drift by at
  /// most width/2 per crash time but stay deterministic and thread-count
  /// independent.
  double theta_bucket_width = 0.0;
  /// Progress callback, invoked after each completed wave from the thread
  /// that runs the campaign (never from worker threads). Purely
  /// observational — the summary is identical whether it is set or not.
  std::function<void(const CampaignProgress&)> on_progress;
  /// Early stopping: stop once the Wilson 95% interval around the folded
  /// prefix's success rate is at most this wide (0 = off, run the full
  /// budget; otherwise inside (0, 1)). CampaignFold checks it after every
  /// kCampaignWave records of the canonical stream, so the stopping point —
  /// and therefore the summary — is a deterministic function of the record
  /// stream for either backend, independent of threads and workers.
  /// run_campaign_block replays its exact range regardless (a block is a
  /// fixed slice of someone else's campaign).
  double target_ci_width = 0.0;
  /// Replay-template reuse hook for services that cache ReplayEngines
  /// across campaigns (the campaign server): a non-null engine, the
  /// build_campaign_engine result for this campaign's schedule, costs and
  /// theta_bucket_width (the width is checked: a mismatch throws
  /// CheckError), is used instead of building one. The caller keeps it
  /// alive for the duration of the call.
  const ReplayEngine* prebuilt_engine = nullptr;
};

/// Replays per wave, and the early-stop check interval of CampaignFold: an
/// early stop lands on a wave boundary, so the wave drawn beside the
/// stopping fold is dropped whole. A constant, not an option: the summary
/// of an early-stopped campaign depends on it, and a report depends on
/// (instance, spec) alone.
inline constexpr std::size_t kCampaignWave = 1024;

/// Entry cap of a campaign's record cache (see "Record cache" above); a
/// full cache is cleared and refills. A constant, not an option: the cache
/// holds ~40-byte records, so the cap bounds memory, never a summary.
inline constexpr std::size_t kRecordCacheCapacity = std::size_t{1} << 15;

/// Hash of a canonical crash-time vector: FNV-1a over its 64-bit words,
/// each step folding the high half into the low one — 0 and +inf differ
/// only in exponent bits, which a multiply alone never carries downward.
/// Canonical times are never -0.0 or NaN, so equal vectors have equal bits.
/// Transparent, with CrashTimesEqual: owned keys and views of a wave's
/// arena hash and compare alike, so a lookup builds no key.
struct CrashTimesHash {
  using is_transparent = void;
  std::size_t operator()(std::span<const double> times) const {
    std::uint64_t hash = 1469598103934665603ull;
    for (const double t : times) {
      hash = (hash ^ std::bit_cast<std::uint64_t>(t)) * 1099511628211ull;
      hash ^= hash >> 32;
    }
    return static_cast<std::size_t>(hash);
  }
};

struct CrashTimesEqual {
  using is_transparent = void;
  bool operator()(std::span<const double> a, std::span<const double> b) const {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
};

/// The record cache of a row-carrying campaign (see "Record cache" above):
/// canonical crash-time vector -> record, looked up by span.
using RecordCache = std::unordered_map<std::vector<double>, ReplayRecord,
                                       CrashTimesHash, CrashTimesEqual>;

/// Optional observability output of run_campaign — record-cache
/// effectiveness and the engine's fault-free cut count. Purely
/// informational: nothing here feeds back into the summary. memo_lookups −
/// memo_hits is the number of kernel replays of cacheable draws.
struct CampaignTelemetry {
  std::uint64_t memo_lookups = 0;    ///< draws with a canonical form
  std::uint64_t memo_hits = 0;       ///< of those, served without a replay
  std::uint64_t memo_evictions = 0;  ///< record-cache clears (cache full)
  std::size_t memo_entries = 0;      ///< cache entries resident at the end
  std::size_t snapshots = 0;     ///< fault-free cuts (= events) of the engine
  // Execution-shape counters (PR 6): identical semantics for the
  // in-process and subprocess backends, so Session can report one story.
  // wall_seconds is the only non-deterministic field; everything else is a
  // pure function of the campaign configuration.
  std::size_t replays = 0;       ///< replays executed and folded
  std::size_t blocks = 0;        ///< waves (in-process) or wire blocks
  std::size_t workers = 0;       ///< worker threads or subprocess slots
  std::size_t worker_retries = 0;  ///< subprocess blocks retried (0 in-proc)
  double wall_seconds = 0.0;     ///< campaign wall time (steady_clock)
  /// Most blocks the subprocess coordinator's reorder window ever held at
  /// once — the streaming fold's actual peak, at most max(2 × workers, 4).
  /// 0 for the in-process backend, whose fold is wave-by-wave and never
  /// buffers.
  std::size_t fold_window_peak = 0;
};

/// Folds one record into `accumulator` — the fold step of CampaignFold.
void fold_replay_record(CampaignAccumulator& accumulator,
                        const ReplayRecord& record);

/// The fold of one campaign's record stream, fed in canonical replay order
/// in chunks of any size: the summary, the stopping point (see
/// CampaignOptions::target_ci_width) and the exported counters depend on
/// the stream alone. Records past the stopping point are discarded.
class CampaignFold {
 public:
  /// `eps` is the schedule's supported failure count. Throws CheckError
  /// unless options.target_ci_width is 0 or inside (0, 1).
  CampaignFold(std::size_t eps, std::string sampler_name,
               const CampaignOptions& options);

  /// Folds the next `count` records of the stream and fires
  /// options.on_progress. Returns false once the fold has stopped; records
  /// handed in after that are ignored.
  bool add(const ReplayRecord* records, std::size_t count);

  [[nodiscard]] bool stopped() const { return stopped_; }
  /// The fold keeps `replays`; the backend adds the record-cache and
  /// execution-shape counters, which progress and export_metrics read.
  [[nodiscard]] CampaignTelemetry& telemetry() { return telemetry_; }
  [[nodiscard]] CampaignSummary summary() const {
    return accumulator_.summary();
  }
  /// Writes campaign.replays, campaign.blocks, campaign.memo.*,
  /// campaign.snapshots and campaign.replays_per_second to the global obs
  /// registry (a no-op when it is disabled). Call once, at the end.
  void export_metrics() const;

 private:
  /// Width of the Wilson 95% interval of the folded prefix.
  [[nodiscard]] double ci_width() const;

  CampaignAccumulator accumulator_;
  CampaignTelemetry telemetry_;
  std::size_t total_;
  double target_ci_width_;
  std::function<void(const CampaignProgress&)> on_progress_;
  bool stopped_ = false;
};

/// Runs the contiguous replays [first, first + count) of the campaign's
/// canonical scenario stream (the stream run_campaign draws for the same
/// seed — `options.replays` is ignored here) and hands each completed wave
/// (kCampaignWave records at most) to `sink` in canonical replay order, on
/// the calling thread, then reuses its buffer, so the caller — the
/// subprocess worker writing records onto its stdout pipe — never holds
/// more than two waves in memory: the one being sunk and the one being
/// drawn beside it.
/// Concatenating the sink chunks of the blocks of any partition of [0, N)
/// reproduces run_campaign's record stream exactly; this is the worker
/// half of the subprocess campaign backend (api/session.hpp).
void run_campaign_block(
    const Schedule& schedule, const CostModel& costs,
    const ScenarioSampler& sampler, const CampaignOptions& options,
    std::size_t first, std::size_t count, CampaignTelemetry* telemetry,
    const std::function<void(const ReplayRecord* records, std::size_t count)>&
        sink);

/// Runs `options.replays` crash replays of `schedule` under scenarios drawn
/// from `sampler` into one CampaignFold and returns its summary.
/// `telemetry`, when non-null, receives the fold's telemetry.
[[nodiscard]] CampaignSummary run_campaign(const Schedule& schedule,
                                           const CostModel& costs,
                                           const ScenarioSampler& sampler,
                                           const CampaignOptions& options,
                                           CampaignTelemetry* telemetry =
                                               nullptr);

/// The replay engine every campaign path runs on: a recorded fault-free
/// timeline and the campaign's θ-bucket width. run_campaign and
/// run_campaign_block build it unless CampaignOptions::prebuilt_engine
/// supplies it, and the campaign server caches it as its replay template.
[[nodiscard]] std::unique_ptr<const ReplayEngine> build_campaign_engine(
    const Schedule& schedule, const CostModel& costs,
    double theta_bucket_width);

}  // namespace caft
