/// perfbench — the repository's benchmark binary (driven by perfbench/run.py).
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--trace-out FILE]
///
/// N, the most busy threads or client connections a leg uses, is
/// min(4, hardware threads).
///
/// Untraced (--trace 0): sets the workload up three times (setup_s is the
/// median), runs a 1-thread leg and an N-thread leg of S/2 seconds each,
/// checks every output, and prints the end-to-end metrics as the last line:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
///
/// Traced (--trace 1): four 1-thread slices of S/8 seconds, untraced,
/// traced, traced, untraced (the tracing overhead), an N-thread traced leg
/// of S/2 seconds, then the per-layer probes; prints the per-layer metrics
/// and writes every span as a Chrome trace to --trace-out.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "layers.hpp"
#include "obs/obs.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr std::size_t kSetups = 3;
constexpr std::size_t kWarmUpLeg = 9;  ///< leg index of the warm-up op

Options parse(int argc, char** argv) {
  Options options;
  const unsigned hw = std::thread::hardware_concurrency();
  options.threads = std::min<std::size_t>(4, hw == 0 ? 1 : hw);
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value != "0";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (options.seconds <= 0.0) throw std::runtime_error("--seconds must be > 0");
  return options;
}

std::vector<double> timed_setups(Workload& workload) {
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < kSetups; ++i) {
    const Stopwatch watch;
    workload.setup();
    setup_s.push_back(watch.seconds());
  }
  return setup_s;
}

/// One untimed op before the first leg, so lazy allocation and first-touch
/// costs are not charged to whichever leg runs first.
void warm_up(Workload& workload) {
  (void)workload.op(1, kWarmUpLeg, 0, 0);
}

/// Pins the calling thread to one CPU of `cpus`; an empty set restores
/// the affinity the process started with.
void pin_calling_thread(const std::vector<int>& cpus, std::size_t index) {
  static const cpu_set_t original = [] {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    ::sched_getaffinity(0, sizeof(mask), &mask);
    return mask;
  }();
  cpu_set_t mask = original;
  if (!cpus.empty()) {
    CPU_ZERO(&mask);
    CPU_SET(cpus[index % cpus.size()], &mask);
  }
  ::pthread_setaffinity_np(::pthread_self(), sizeof(mask), &mask);
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(mask), &mask) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &mask)) cpus.push_back(cpu);
  return cpus;
}

LegResult leg(Workload& workload, std::size_t threads, std::size_t index,
              double budget_s) {
  workload.prepare_leg(threads);
  // A lone busy thread stays on one vCPU, and on a shared host vCPUs run at
  // different speeds for minutes at a time; the N-thread leg spans all of
  // them. So a 1-thread leg of the in-process workloads moves its thread
  // to the next CPU every op (shifting by one each round, so pooled inputs
  // do not always meet the same CPU), and sees every vCPU equally.
  const std::vector<int> cpus =
      threads == 1 && workload.pooled() ? allowed_cpus() : std::vector<int>{};
  LegResult result = run_leg(
      workload.clients(threads), budget_s,
      [&](std::size_t client, std::size_t k) {
        if (!cpus.empty()) pin_calling_thread(cpus, k + k / cpus.size());
        return workload.op(threads, index, client, k);
      });
  if (!cpus.empty()) pin_calling_thread({}, 0);
  return result;
}

void print_samples(const Options& options, const LegResult& one,
                   const LegResult& many) {
  std::cout << "# " << options.workload << " seed " << options.seed
            << ": 1-thread leg " << one.ops << " ops in " << one.seconds
            << " s (steal " << one.steal << "); " << options.threads
            << "-thread leg " << many.ops << " ops in " << many.seconds
            << " s (steal " << many.steal << "; latency samples: "
            << many.latencies_ms.size() << ", cold "
            << many.cold_latencies_ms.size() << ", warm "
            << many.warm_latencies_ms.size() << ")\n";
}

int run_untraced(const Options& options, Workload& workload) {
  Gates gates;
  const std::vector<double> setup_s = timed_setups(workload);
  warm_up(workload);
  const double budget = options.seconds / 2.0;
  const LegResult one = leg(workload, 1, 0, budget);
  const LegResult many = leg(workload, options.threads, 1, budget);
  workload.check(gates, one, many);
  gates.check(!many.cold_latencies_ms.empty(), "cold latency samples exist");
  print_samples(options, one, many);

  // Every op is an attempted operation; a failed gate fails one more.
  const std::size_t attempted = one.ops + many.ops + gates.attempted;
  std::size_t failed = one.failed + many.failed + gates.failed;

  const LegRates one_rates = leg_rates(one, workload.pooled());
  const LegRates many_rates = leg_rates(many, workload.pooled());
  MetricSet metrics;
  metrics.set("replays_per_s", many_rates.replays, "1/s");
  metrics.set("replays_per_s_1t", one_rates.replays, "1/s");
  metrics.set("instances_per_s", many_rates.instances, "1/s");
  metrics.set("instances_per_s_1t", one_rates.instances, "1/s");
  metrics.set("request_p50_ms", quantile(many.latencies_ms, 0.5), "ms");
  metrics.set("request_p90_ms", quantile(many.latencies_ms, 0.9), "ms");
  metrics.set("cold_request_p50_ms", quantile(many.cold_latencies_ms, 0.5),
              "ms");
  metrics.set("requests_per_s", many_rates.ops, "1/s");
  metrics.set("setup_s", median(setup_s), "s");
  metrics.set("peak_rss_mb", peak_rss_mb(), "MiB");
  failed += metrics.non_finite();
  const double completed =
      static_cast<double>(attempted - std::min(failed, attempted)) /
      static_cast<double>(attempted);
  metrics.set("completed_ratio", completed, "ratio");
  metrics.write_result_line(std::cout, attempted, failed);
  return failed == 0 ? 0 : 1;
}

int run_traced(const Options& options, Workload& workload) {
  Gates gates;
  (void)timed_setups(workload);
  warm_up(workload);

  // The benchmark's spans and the library's obs registry go on and off
  // together, so both land on one timeline in the trace file.
  obs::Registry& registry = obs::Registry::global();
  const auto set_tracing = [&](bool on) {
    registry.set_enabled(on);
    registry.set_tracing(on);
    Tracer::global().set_enabled(on);
  };
  TracedLegs legs;
  const auto traced_leg = [&](std::size_t threads, std::size_t index,
                              double budget_s) {
    const auto counter = [&](const char* name) {
      return static_cast<double>(registry.snapshot().counter_value(name));
    };
    const double hits = counter("server.cache.hit");
    const double misses = counter("server.cache.miss");
    LegResult result = leg(workload, threads, index, budget_s);
    legs.cache_hits += counter("server.cache.hit") - hits;
    legs.cache_misses += counter("server.cache.miss") - misses;
    return result;
  };

  // Tracing overhead: four 1-thread slices, untraced, traced, traced,
  // untraced, so drift over the run cancels. Each slice restarts the same
  // op stream.
  const double slice_s = options.seconds / 8.0;
  double plain_rate = 0.0;
  double traced_rate = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  LegResult one;
  for (std::size_t i = 0; i < 4; ++i) {
    const bool traced = i == 1 || i == 2;
    set_tracing(traced);
    LegResult slice = traced_leg(1, 2 + i, slice_s);
    (traced ? traced_rate : plain_rate) +=
        leg_rates(slice, workload.pooled()).replays / 2.0;
    attempted += slice.ops;
    failed += slice.failed;
    if (i == 1) one = std::move(slice);
  }
  set_tracing(true);
  const LegResult many =
      traced_leg(options.threads, 6, options.seconds / 2.0);
  attempted += many.ops;
  failed += many.failed;
  workload.check(gates, one, many);
  print_samples(options, one, many);
  if (!many.warm_latencies_ms.empty())
    legs.warm_request_p50_ms = quantile(many.warm_latencies_ms, 0.5);

  MetricSet metrics;
  measure_layers(options, workload.subject(), legs, metrics, gates);
  metrics.set("trace.overhead_pct", (plain_rate / traced_rate - 1.0) * 100.0,
              "%");

  Tracer::global().set_enabled(false);
  registry.set_tracing(false);
  if (!options.trace_out.empty()) {
    std::ostringstream library_trace;
    registry.write_trace_json(library_trace);
    std::ofstream out(options.trace_out);
    Tracer::global().write_chrome_trace(out, library_trace.str());
    gates.check(static_cast<bool>(out), "trace file written");
    std::cout << "# trace: " << Tracer::global().event_count()
              << " benchmark spans, " << registry.trace_event_count()
              << " library events -> " << options.trace_out << "\n";
  }
  registry.set_enabled(false);

  attempted += gates.attempted;
  failed += gates.failed + metrics.non_finite();
  metrics.write_result_line(std::cout, attempted, failed);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parse(argc, argv);
    const std::unique_ptr<Workload> workload =
        make_workload(options.workload, options);
    if (workload == nullptr) {
      std::cerr << "perfbench: unknown workload '" << options.workload
                << "' (uniform-k, crash-window, paper-figure, service-mix)\n";
      return 2;
    }
    return options.trace ? run_traced(options, *workload)
                         : run_untraced(options, *workload);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 2;
  }
}
