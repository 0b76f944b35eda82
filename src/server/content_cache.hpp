/// \file content_cache.hpp
/// The campaign server's content-addressed artifact cache.
///
/// Everything the server computes is a pure function of the request's
/// instance *bytes* and spec — so the cache keys derive from content, never
/// from client identity or arrival order:
///
///   instance   i/<fnv1a64(bytes)>            -> loaded Instance
///   schedule   s/<hash>/<algorithm>/<req>    -> ScheduleResult (+ instance)
///   template   t/<schedule-key>/<width>      -> prebuilt ReplayEngine
///
/// where <req> is the shared wire::write_request_line encoding of the
/// ScheduleRequest (every field that can change a schedule is in it) and
/// <width> is the effective θ-bucket width (hexfloat, 0 when exact) — the
/// one ReplayEngineOptions member that changes replay *results*. Cut
/// placement is NOT in the key: it only decides where a replay may start
/// (every cut derives from one fault-free timeline), so a template built
/// here with default placement replays bit-identically to the adaptive
/// engine run_campaign builds, as tests/test_campaign_server.cpp checks
/// (byte-identical reports on hits).
///
/// The three families share one LRU map: the key prefixes keep them apart.
///
/// Lifetimes chain through shared_ptr — a CachedSchedule keeps its
/// Instance alive, a CachedTemplate keeps its CachedSchedule alive — so
/// evicting any entry mid-request never dangles: the request's own handles
/// keep the artifacts alive until it finishes.
///
/// Concurrency: one mutex around everything, *including* artifact builds.
/// That serializes a concurrent miss storm on the same key into one build
/// (the second requester finds the hit), at the cost of serializing
/// unrelated builds too — the right trade for a cache whose point is that
/// builds are rare and hits are the steady state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "api/instance.hpp"
#include "api/scheduler.hpp"
#include "obs/obs.hpp"
#include "sim/replay_engine.hpp"

namespace ftsched {
namespace server {

class ContentCache {
 public:
  /// A schedule pinned to the instance it references. `key` is the full
  /// content-addressed cache key (instance hash + algorithm + request
  /// fingerprint) — the prefix template keys extend.
  struct CachedSchedule {
    std::shared_ptr<const Instance> instance;
    ScheduleResult result;
    std::string key;
  };

  /// A replay template pinned to the schedule (and, transitively, the
  /// instance) it was built from.
  struct CachedTemplate {
    std::shared_ptr<const CachedSchedule> schedule;
    std::unique_ptr<const caft::ReplayEngine> engine;
  };

  /// `capacity` bounds the *total* entry count across all three families;
  /// the least-recently-used entry is evicted on overflow. 0 disables
  /// caching entirely (every lookup misses and nothing is stored) — the
  /// knob CI uses to drive the always-cold path.
  explicit ContentCache(std::size_t capacity);

  /// The Instance for `bytes` (io/instance_io text), loading on miss.
  /// Writes the content hash — the handle the schedule family is keyed
  /// under — to `*hash`. Throws caft::CheckError on unparseable bytes
  /// (nothing is cached in that case).
  [[nodiscard]] std::shared_ptr<const Instance> instance(
      const std::string& bytes, std::uint64_t* hash);

  /// The ScheduleResult of running `algorithm` (a registry name) on the
  /// cached `instance` under `request`, scheduling on miss.
  [[nodiscard]] std::shared_ptr<const CachedSchedule> schedule(
      const std::shared_ptr<const Instance>& instance,
      std::uint64_t instance_hash, const std::string& algorithm,
      const ScheduleRequest& request);

  /// The ReplayEngine template for `schedule` under the given θ-bucket
  /// width, building (with default, uniform cut placement — see the
  /// file comment) on miss. The width is CampaignSpec::theta_bucket_width,
  /// which is already 0 for an exact spec, so an exact request shares the
  /// unbucketed template. `exact` is unused: it stays only so the existing
  /// three-argument callers compile.
  [[nodiscard]] std::shared_ptr<const CachedTemplate> replay_template(
      const std::shared_ptr<const CachedSchedule>& schedule,
      double theta_bucket_width, bool exact);

  /// Entries currently held, all families combined.
  [[nodiscard]] std::size_t size() const;

 private:
  struct Slot {
    std::shared_ptr<const void> value;  ///< the family its key names
    std::uint64_t last_used = 0;
  };

  /// The entry under `key`, or — on a miss — `build()`'s artifact, stored
  /// unless capacity_ is 0. Counts the hit or miss; builds under lock_.
  template <typename T, typename Build>
  std::shared_ptr<const T> find_or_build(const std::string& key,
                                         const Build& build);

  const std::size_t capacity_;
  mutable std::mutex lock_;
  std::uint64_t tick_ = 0;  ///< LRU clock; bumped per lookup under lock_
  std::map<std::string, Slot> entries_;

  obs::Counter hits_;
  obs::Counter misses_;
  obs::Counter evictions_;
};

}  // namespace server
}  // namespace ftsched
