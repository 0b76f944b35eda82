#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>
#include <tuple>
#include <utility>

#include "obs/obs.hpp"

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const std::size_t low = static_cast<std::size_t>(std::floor(position));
  const std::size_t high = std::min(low + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(low);
  return values[low] + (values[high] - values[low]) * fraction;
}

namespace {

/// Busy and stolen ticks of all vCPUs so far (first line of /proc/stat).
std::pair<double, double> busy_and_steal_ticks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
         softirq = 0, steal = 0;
  stat >> label >> user >> nice >> system >> idle >> iowait >> irq >>
      softirq >> steal;
  return {user + nice + system + irq + softirq, steal};
}

}  // namespace

Stopwatch::Stopwatch() {
  std::tie(busy_ticks_, steal_ticks_) = busy_and_steal_ticks();
  begin_ = Clock::now();
}

double Stopwatch::steal_share() const {
  const auto [busy, steal] = busy_and_steal_ticks();
  const double stolen = steal - steal_ticks_;
  const double total = busy - busy_ticks_ + stolen;
  return total > 0.0 ? stolen / total : 0.0;
}

double Stopwatch::seconds() const {
  const double wall = wall_s();
  return wall * (1.0 - steal_share());
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kib = 0.0;
    fields >> kib;
    return kib / 1024.0;
  }
  return 0.0;
}

LegResult run_leg(
    std::size_t clients, double budget_s,
    const std::function<OpSample(std::size_t client, std::size_t k)>& op) {
  std::vector<std::vector<OpSample>> samples(clients);
  const Stopwatch leg_watch;
  const auto client_loop = [&](std::size_t client) {
    for (std::size_t k = 0; leg_watch.wall_s() < budget_s; ++k) {
      const Stopwatch op_watch;
      OpSample sample = op(client, k);
      sample.latency_ms *= 1.0 - op_watch.steal_share();
      samples[client].push_back(std::move(sample));
    }
  };
  if (clients == 1) {
    client_loop(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) pool.emplace_back(client_loop, c);
    for (std::thread& thread : pool) thread.join();
  }

  LegResult leg;
  leg.steal = leg_watch.steal_share();
  leg.seconds = leg_watch.wall_s() * (1.0 - leg.steal);
  leg.outputs.resize(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    for (OpSample& sample : samples[c]) {
      ++leg.ops;
      if (!sample.ok) ++leg.failed;
      leg.replays += sample.replays;
      leg.instances += sample.instances;
      LegResult::InputTotals& input = leg.inputs[sample.input];
      input.latencies_s.push_back(sample.latency_ms * 1e-3);
      ++input.ops;
      input.replays += sample.replays;
      input.instances += sample.instances;
      leg.latencies_ms.push_back(sample.latency_ms);
      (sample.cold ? leg.cold_latencies_ms : leg.warm_latencies_ms)
          .push_back(sample.latency_ms);
      leg.outputs[c].push_back(std::move(sample.output));
    }
  }
  return leg;
}

LegRates leg_rates(const LegResult& leg, bool pooled) {
  LegRates rates;
  if (!pooled || leg.outputs.size() != 1) {
    rates.replays = static_cast<double>(leg.replays) / leg.seconds;
    rates.instances = static_cast<double>(leg.instances) / leg.seconds;
    rates.ops = static_cast<double>(leg.ops) / leg.seconds;
    return rates;
  }
  // Typical time per unit of work, each input weighted equally.
  double per_replay = 0.0;
  double per_instance = 0.0;
  double per_op = 0.0;
  for (const auto& [input, totals] : leg.inputs) {
    (void)input;
    const double op_s = median(totals.latencies_s);
    const double ops = static_cast<double>(totals.ops);
    per_replay += op_s * ops / static_cast<double>(totals.replays);
    per_instance += op_s * ops / static_cast<double>(totals.instances);
    per_op += op_s;
  }
  const double inputs = static_cast<double>(leg.inputs.size());
  rates.replays = inputs / per_replay;
  rates.instances = inputs / per_instance;
  rates.ops = inputs / per_op;
  return rates;
}

std::size_t count_output_mismatches(const LegResult& a, const LegResult& b) {
  std::size_t mismatches = 0;
  const std::size_t clients = std::min(a.outputs.size(), b.outputs.size());
  for (std::size_t c = 0; c < clients; ++c) {
    const std::size_t common =
        std::min(a.outputs[c].size(), b.outputs[c].size());
    for (std::size_t k = 0; k < common; ++k)
      if (a.outputs[c][k] != b.outputs[c][k]) ++mismatches;
  }
  return mismatches;
}

void MetricSet::set(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    ++non_finite_;
    std::cerr << "perfbench: metric " << name << " is not finite\n";
    value = 0.0;
  }
  entries_.push_back({name, value, unit});
}

void MetricSet::write_result_line(std::ostream& os, std::size_t attempted,
                                  std::size_t failed) const {
  std::ostringstream line;
  line << std::setprecision(17);
  line << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& entry = entries_[i];
    line << (i == 0 ? "" : ", ") << "\"" << entry.name
         << "\": {\"value\": " << entry.value << ", \"unit\": \"" << entry.unit
         << "\"}";
  }
  line << "}}";
  os << line.str() << "\n";
}

void Gates::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  std::cerr << "perfbench: gate failed: " << what << "\n";
}

// ------------------------------------------------------------- tracing

namespace {

struct OpenSpan {
  std::uint64_t id = 0;
  std::uint64_t request = 0;
};
thread_local OpenSpan current_span;

}  // namespace

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::next_id() {
  const std::lock_guard<std::mutex> guard(lock_);
  return next_id_++;
}

void Tracer::record(const Event& event) {
  const std::lock_guard<std::mutex> guard(lock_);
  events_.push_back(event);
}

std::size_t Tracer::event_count() const {
  const std::lock_guard<std::mutex> guard(lock_);
  return events_.size();
}

void Tracer::write_chrome_trace(std::ostream& os,
                                const std::string& library_trace) const {
  const std::lock_guard<std::mutex> guard(lock_);
  os << std::setprecision(15) << "{\"traceEvents\": [\n";
  bool first = true;
  for (const Event& event : events_) {
    os << (first ? "" : ",\n") << "{\"name\": \"" << event.name
       << "\", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
       << event.tid << ", \"ts\": " << event.begin_us
       << ", \"dur\": " << (event.end_us - event.begin_us)
       << ", \"args\": {\"id\": " << event.id << ", \"parent\": "
       << event.parent << ", \"request\": " << event.request << "}}";
    first = false;
  }
  // Splice in the library's events: the obs writer emits the object form
  // {"traceEvents": [...]}, so its array body drops in as-is.
  const std::size_t open = library_trace.find('[');
  const std::size_t close = library_trace.rfind(']');
  if (open != std::string::npos && close != std::string::npos &&
      close > open) {
    const std::string body = library_trace.substr(open + 1, close - open - 1);
    if (body.find('{') != std::string::npos)
      os << (first ? "" : ",\n") << body;
  }
  os << "\n]}\n";
}

Span::Span(const char* name, std::uint64_t request) {
  Tracer& tracer = Tracer::global();
  if (!tracer.enabled()) return;
  active_ = true;
  saved_parent_ = current_span.id;
  saved_request_ = current_span.request;
  event_.name = name;
  event_.id = tracer.next_id();
  event_.parent = saved_parent_;
  event_.request = request != 0 ? request : saved_request_;
  event_.tid = obs::Registry::current_tid();
  current_span = OpenSpan{event_.id, event_.request};
  event_.begin_us = obs::Registry::global().now_us();
}

Span::~Span() {
  if (!active_) return;
  event_.end_us = obs::Registry::global().now_us();
  current_span = OpenSpan{saved_parent_, saved_request_};
  Tracer::global().record(event_);
}

}  // namespace perfbench
