#include "server/content_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "api/campaign_wire.hpp"
#include "common/hash.hpp"

namespace ftsched {
namespace server {

namespace {

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

}  // namespace

ContentCache::ContentCache(std::size_t capacity)
    : capacity_(capacity),
      hits_(obs::Registry::global().counter("server.cache.hit")),
      misses_(obs::Registry::global().counter("server.cache.miss")),
      evictions_(obs::Registry::global().counter("server.cache.evict")) {}

std::size_t ContentCache::size() const {
  const std::lock_guard<std::mutex> guard(lock_);
  return entries_.size();
}

template <typename T, typename Build>
std::shared_ptr<const T> ContentCache::find_or_build(const std::string& key,
                                                     const Build& build) {
  const std::lock_guard<std::mutex> guard(lock_);
  ++tick_;
  if (const auto it = entries_.find(key); it != entries_.end()) {
    it->second.last_used = tick_;
    hits_.add(1);
    return std::static_pointer_cast<const T>(it->second.value);
  }
  misses_.add(1);
  std::shared_ptr<const T> built = build();
  if (capacity_ == 0) return built;
  entries_[key] = {built, tick_};
  while (entries_.size() > capacity_) {
    // O(entries) scan for the oldest tick — fine at cache-capacity scale,
    // and it keeps the structure a plain ordered map (no intrusive LRU
    // list to get wrong under the single lock).
    entries_.erase(std::min_element(
        entries_.begin(), entries_.end(), [](const auto& a, const auto& b) {
          return a.second.last_used < b.second.last_used;
        }));
    evictions_.add(1);
  }
  return built;
}

std::shared_ptr<const Instance> ContentCache::instance(
    const std::string& bytes, std::uint64_t* hash) {
  const std::uint64_t key_hash = caft::fnv1a64(bytes);
  if (hash != nullptr) *hash = key_hash;
  return find_or_build<Instance>("i/" + hex64(key_hash), [&] {
    std::istringstream in(bytes);
    return std::make_shared<const Instance>(Instance::load(in));
  });
}

std::shared_ptr<const ContentCache::CachedSchedule> ContentCache::schedule(
    const std::shared_ptr<const Instance>& instance,
    std::uint64_t instance_hash, const std::string& algorithm,
    const ScheduleRequest& request) {
  // The request fingerprint is the shared wire encoding — one line that
  // covers every field that can change a schedule, maintained in exactly
  // one place (api/campaign_wire.cpp).
  std::ostringstream fingerprint;
  wire::write_request_line(fingerprint, request);
  const std::string key =
      "s/" + hex64(instance_hash) + "/" + algorithm + "/" + fingerprint.str();
  return find_or_build<CachedSchedule>(key, [&] {
    const auto scheduler = SchedulerRegistry::global().make(algorithm);
    return std::make_shared<const CachedSchedule>(CachedSchedule{
        instance, scheduler->schedule(*instance, request), key});
  });
}

std::shared_ptr<const ContentCache::CachedTemplate>
ContentCache::replay_template(
    const std::shared_ptr<const CachedSchedule>& schedule,
    double theta_bucket_width, [[maybe_unused]] bool exact) {
  // The schedule key already pins instance content, algorithm and request;
  // the θ-width is the only engine option that changes replay results, so
  // together they address the template fully.
  caft::ReplayEngineOptions options;
  options.theta_bucket_width = theta_bucket_width;
  return find_or_build<CachedTemplate>(
      "t/" + schedule->key + "/" +
          wire::format_double(options.theta_bucket_width),
      [&] {
        return std::make_shared<const CachedTemplate>(CachedTemplate{
            schedule, std::make_unique<const caft::ReplayEngine>(
                          schedule->result.schedule,
                          schedule->instance->costs(), options)});
      });
}

}  // namespace server
}  // namespace ftsched
