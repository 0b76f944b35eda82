/// \file harness.hpp
/// Measurement plumbing shared by every workload of the benchmark: the
/// command line, order statistics, the closed-loop leg runner, the metric
/// set printed as the result line, and the benchmark-owned span tracer.
///
/// The benchmark times the library strictly from outside: every span and
/// every timing here wraps a call into a public function of one layer.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

/// Parsed command line. `threads` is N, the most busy threads (and client
/// connections) any leg may use.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t threads = 4;
  std::string trace_out;  ///< Chrome-trace file of the traced run
};

/// SplitMix64 finalizer: derives independent sub-seeds from the workload
/// seed, so every generated input is a function of (seed, tag) alone.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag);

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Elapsed time as the program experienced it: wall time minus the share
/// the hypervisor stole from this machine's busy vCPUs meanwhile (the
/// steal column of /proc/stat; 0 on bare metal or an uncontended host).
/// On a shared host steal swings from 0 to half of all busy time within
/// minutes, so uncorrected rates would measure the neighbours.
class Stopwatch {
 public:
  Stopwatch();
  [[nodiscard]] double wall_s() const { return seconds_since(begin_); }
  /// Stolen share of the machine's busy vCPU time since construction.
  [[nodiscard]] double steal_share() const;
  /// wall_s() * (1 - steal_share())
  [[nodiscard]] double seconds() const;

 private:
  Clock::time_point begin_;
  double busy_ticks_ = 0.0;
  double steal_ticks_ = 0.0;
};

/// Peak resident set size of this process in MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// One operation of a leg, as the op callback reports it.
struct OpSample {
  double latency_ms = 0.0;    ///< wall time of the timed call
  std::size_t replays = 0;    ///< crash replays the op performed
  std::size_t instances = 0;  ///< instances the op evaluated
  bool cold = true;           ///< op carried a never-seen instance
  bool ok = true;             ///< op passed its inline gates
  std::size_t input = 0;      ///< which pooled input the op ran on
  std::string output;         ///< canonical output bytes (leg identity)
};

/// What one leg measured.
/// Times are steal-corrected (see Stopwatch).
struct LegResult {
  double seconds = 0.0;
  double steal = 0.0;  ///< stolen share over the whole leg
  std::size_t ops = 0;
  std::size_t failed = 0;
  std::size_t replays = 0;
  std::size_t instances = 0;
  std::vector<double> latencies_ms;
  std::vector<double> cold_latencies_ms;
  std::vector<double> warm_latencies_ms;
  /// outputs[client][k]: output of client's k-th op (identity gate).
  std::vector<std::vector<std::string>> outputs;

  /// Op latencies and work per pooled input (single-client legs).
  struct InputTotals {
    std::vector<double> latencies_s;
    std::size_t ops = 0;
    std::size_t replays = 0;
    std::size_t instances = 0;
  };
  std::map<std::size_t, InputTotals> inputs;
};

/// Work per second of a leg. `pooled` (single-client legs whose ops cycle
/// through a pool of instances of different cost) weighs every input
/// equally and takes each input's median op time, so neither uneven
/// coverage by a time-boxed leg nor a burst of outside load on a few ops
/// moves the rate. Otherwise: total work / wall time.
struct LegRates {
  double replays = 0.0;
  double instances = 0.0;
  double ops = 0.0;
};
[[nodiscard]] LegRates leg_rates(const LegResult& leg, bool pooled);

/// Closed loop: `clients` threads each issue op(client, k) for k = 0, 1,
/// ... and start no new op once `budget_s` has elapsed. The leg's wall time
/// runs until the last op returns.
[[nodiscard]] LegResult run_leg(
    std::size_t clients, double budget_s,
    const std::function<OpSample(std::size_t client, std::size_t k)>& op);

/// Ops the two legs both completed whose outputs differ (leg identity).
[[nodiscard]] std::size_t count_output_mismatches(const LegResult& a,
                                                  const LegResult& b);

/// The metrics of the result line, in insertion order.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Non-finite values are replaced by 0 and counted here.
  [[nodiscard]] std::size_t non_finite() const { return non_finite_; }
  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  void write_result_line(std::ostream& os, std::size_t attempted,
                         std::size_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> entries_;
  std::size_t non_finite_ = 0;
};

/// Gate bookkeeping: every check is one attempted operation.
struct Gates {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void check(bool ok, const std::string& what);
};

// ------------------------------------------------------------- tracing

/// Benchmark-owned spans: name, start, end, parent and request id, kept in
/// memory and written as Chrome trace events at the end of a traced run.
/// Timestamps share the obs registry's clock, so the library's own spans
/// (when the registry is armed) land on the same timeline.
class Tracer {
 public:
  struct Event {
    const char* name = "";
    double begin_us = 0.0;
    double end_us = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint64_t request = 0;
    std::uint32_t tid = 0;
  };

  [[nodiscard]] static Tracer& global();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t next_id();
  void record(const Event& event);
  [[nodiscard]] std::size_t event_count() const;

  /// Writes {"traceEvents": [...]}: this tracer's events followed by the
  /// events of `library_trace`, a document written by the obs registry.
  void write_chrome_trace(std::ostream& os,
                          const std::string& library_trace) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex lock_;
  std::uint64_t next_id_ = 1;
  std::vector<Event> events_;
};

/// RAII span on the calling thread. Children inherit the request id of the
/// innermost open span unless they name their own.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer::Event event_;
  bool active_ = false;
  std::uint64_t saved_parent_ = 0;
  std::uint64_t saved_request_ = 0;
};

}  // namespace perfbench
