#include "common/parallel.hpp"

#include <cstdlib>
#include <utility>

namespace caft {

std::size_t default_thread_count() {
  if (const char* env = std::getenv("CAFT_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 1) return static_cast<std::size_t>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

WorkerGroup::WorkerGroup(std::size_t slots) {
  if (slots <= 1) return;
  threads_.reserve(slots - 1);
  try {
    for (std::size_t slot = 1; slot < slots; ++slot)
      threads_.emplace_back([this, slot] { work(slot); });
  } catch (...) {
    stop();  // join whatever did start
    throw;
  }
}

WorkerGroup::~WorkerGroup() { stop(); }

void WorkerGroup::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    ++phase_;  // ends a spinning worker's poll too
  }
  start_.notify_all();
  for (std::thread& thread : threads_)
    if (thread.joinable()) thread.join();
}

namespace {

/// Polls `done` up to a bounded number of times, yielding between polls;
/// true once it holds. The bound keeps an idle slot's spinning to a few
/// tens of microseconds before it blocks: long enough to span the serial
/// step between two campaign draw phases, short enough not to hold a
/// shared core. (On a 4-vCPU VM, 64 polls beat both 1024 and none on
/// uniform-k at 4 threads.)
template <typename Done>
bool spin_until(Done&& done) {
  constexpr int kPolls = 64;
  for (int poll = 0; poll < kPolls; ++poll) {
    if (done()) return true;
    std::this_thread::yield();
  }
  return done();
}

}  // namespace

void WorkerGroup::record(std::exception_ptr error) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!error_) error_ = std::move(error);
}

void WorkerGroup::run(const std::function<void(std::size_t)>& fn) {
  if (threads_.empty()) {
    fn(0);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    fn_ = &fn;
    running_ = threads_.size();
    ++phase_;
  }
  start_.notify_all();
  try {
    fn(0);
  } catch (...) {
    record(std::current_exception());
  }
  std::exception_ptr error;
  (void)spin_until([this] { return running_.load() == 0; });
  {
    std::unique_lock<std::mutex> lock(mutex_);
    finished_.wait(lock, [this] { return running_.load() == 0; });
    fn_ = nullptr;
    error = std::exchange(error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void WorkerGroup::work(std::size_t slot) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* fn = nullptr;
    (void)spin_until([&] { return phase_.load() != seen; });
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_.wait(lock, [&] { return stop_ || phase_.load() != seen; });
      if (stop_) return;
      seen = phase_.load();
      fn = fn_;
    }
    try {
      (*fn)(slot);
    } catch (...) {
      record(std::current_exception());
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    if (--running_ == 0) finished_.notify_one();
  }
}

void run_on_threads(std::size_t n,
                    const std::function<void(std::size_t)>& fn) {
  WorkerGroup group(n);
  group.run(fn);
}

}  // namespace caft
