/// \file parallel.hpp
/// Shared worker-thread sizing and fan-out for the parallel drivers: the
/// experiment runner's repetition fan-out (exp/runner), the fault-injection
/// campaign's draw and replay phases (campaign/campaign) and the subprocess
/// coordinator's dispatchers (api/session). Thread sizing honours the
/// CAFT_THREADS environment variable so a single knob pins the whole
/// binary to a thread budget.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace caft {

/// Worker threads a parallel driver should use: the CAFT_THREADS environment
/// variable when set to a positive integer, else the hardware concurrency,
/// else 1.
[[nodiscard]] std::size_t default_thread_count();

/// A fixed set of worker slots that runs barrier-delimited phases: the one
/// fan-out primitive of the library. Slot 0 is the calling thread; the
/// constructor spawns the other size() − 1 threads once, and they sleep
/// between phases, so a caller that needs many short phases (a campaign's
/// waves) pays for the threads once, not per phase.
class WorkerGroup {
 public:
  /// A group of max(1, slots) slots; slots <= 1 spawns nothing.
  explicit WorkerGroup(std::size_t slots);
  ~WorkerGroup();
  WorkerGroup(const WorkerGroup&) = delete;
  WorkerGroup& operator=(const WorkerGroup&) = delete;

  [[nodiscard]] std::size_t size() const { return threads_.size() + 1; }

  /// One phase: calls fn(0) on the calling thread and fn(1) ... fn(size() −
  /// 1) on the workers, and returns once every call has returned. An
  /// exception thrown by any slot is rethrown here after the phase — the
  /// first one thrown when several slots throw — so a phase either
  /// completes on every slot or fails on the caller, never terminates.
  void run(const std::function<void(std::size_t)>& fn);

 private:
  void work(std::size_t slot);
  /// Wakes and joins every worker.
  void stop();
  /// Keeps the first exception of the current phase.
  void record(std::exception_ptr error);

  std::mutex mutex_;
  std::condition_variable start_;
  std::condition_variable finished_;
  // Guarded by mutex_. phase_ and running_ change only under it too, but
  // are atomic so that a slot can poll them for a short while before it
  // sleeps: back-to-back short phases then skip the futex round trip.
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::atomic<std::uint64_t> phase_{0};  ///< bumped per run()
  std::atomic<std::size_t> running_{0};  ///< workers inside the phase
  bool stop_ = false;
  std::exception_ptr error_;
  std::vector<std::thread> threads_;
};

/// Calls fn(0), ..., fn(n - 1), concurrently, and returns once all of them
/// have finished: one WorkerGroup phase, so fn(0) runs on the calling
/// thread and a worker's exception is rethrown here. n <= 1 calls fn(0)
/// inline and spawns nothing.
void run_on_threads(std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace caft
