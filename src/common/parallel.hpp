/// \file parallel.hpp
/// Shared worker-thread sizing and fan-out for the parallel drivers: the
/// experiment runner's repetition fan-out (exp/runner), the fault-injection
/// campaign's replay fan-out (campaign/campaign) and the subprocess
/// coordinator's dispatchers (api/session). Thread sizing honours the
/// CAFT_THREADS environment variable so a single knob pins the whole
/// binary to a thread budget.
#pragma once

#include <cstddef>
#include <functional>

namespace caft {

/// Worker threads a parallel driver should use: the CAFT_THREADS environment
/// variable when set to a positive integer, else the hardware concurrency,
/// else 1.
[[nodiscard]] std::size_t default_thread_count();

/// Calls fn(0), ..., fn(n - 1), each on its own thread, and returns once
/// all of them have finished. n <= 1 calls fn(0) inline on the calling
/// thread and spawns nothing.
void run_on_threads(std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace caft
