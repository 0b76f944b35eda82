#include "common/parallel.hpp"

#include <cstdlib>
#include <thread>
#include <vector>

namespace caft {

std::size_t default_thread_count() {
  if (const char* env = std::getenv("CAFT_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 1) return static_cast<std::size_t>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void run_on_threads(std::size_t n,
                    const std::function<void(std::size_t)>& fn) {
  if (n <= 1) {
    fn(0);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(n);
  for (std::size_t i = 0; i < n; ++i) pool.emplace_back(fn, i);
  for (std::thread& thread : pool) thread.join();
}

}  // namespace caft
