/// Tests of the observability subsystem (src/obs): exact counters and
/// histograms under multi-thread contention (this file runs in the TSan CI
/// suite), trace JSON well-formedness, metrics snapshot round-trip, and
/// the zero-allocation guarantee of the disabled hot path.
#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "counting_allocator.hpp"

namespace {

TEST(ObsRegistry, GlobalStartsDisabled) {
  // The library is instrumented unconditionally; the contract that makes
  // that safe is a disabled-by-default process-wide registry.
  EXPECT_FALSE(obs::Registry::global().enabled());
  EXPECT_FALSE(obs::Registry::global().tracing());
}

TEST(ObsRegistry, CounterIsExactUnderContention) {
  obs::Registry registry;
  registry.set_enabled(true);
  obs::Counter counter = registry.counter("contended");
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t)
    pool.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add(1);
    });
  for (std::thread& thread : pool) thread.join();
  // Striped relaxed adds still sum exactly — no lost updates, ever.
  EXPECT_EQ(registry.snapshot().counter_value("contended"),
            kThreads * kPerThread);
}

TEST(ObsRegistry, HistogramIsExactUnderContention) {
  obs::Registry registry;
  registry.set_enabled(true);
  obs::Histogram histogram =
      registry.histogram("latency", std::vector<double>{1.0, 2.0, 4.0});
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 18000;  // divisible by 6
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t)
    pool.emplace_back([&histogram] {
      for (std::size_t i = 0; i < kPerThread; ++i)
        histogram.observe(static_cast<double>(i % 6));  // 0..5
    });
  for (std::thread& thread : pool) thread.join();

  const obs::MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const obs::MetricsSnapshot::HistogramValue& h = snap.histograms[0];
  EXPECT_EQ(h.name, "latency");
  ASSERT_EQ(h.counts.size(), 4u);  // 3 bounds + overflow
  const std::uint64_t per_value = kThreads * kPerThread / 6;
  // Bounds are inclusive upper bounds: 0,1 -> b0; 2 -> b1; 3,4 -> b2;
  // 5 -> overflow.
  EXPECT_EQ(h.counts[0], 2 * per_value);
  EXPECT_EQ(h.counts[1], per_value);
  EXPECT_EQ(h.counts[2], 2 * per_value);
  EXPECT_EQ(h.counts[3], per_value);
  EXPECT_EQ(h.count, kThreads * kPerThread);
  // Integer-valued observations sum exactly even through atomic doubles.
  EXPECT_EQ(h.sum, static_cast<double>(per_value) * (0 + 1 + 2 + 3 + 4 + 5));
}

TEST(ObsRegistry, GaugeLastWriteWinsAndSnapshotRoundTrips) {
  obs::Registry registry;
  registry.set_enabled(true);
  registry.gauge("rate").set(1.5);
  registry.gauge("rate").set(42.25);
  registry.counter("n").add(7);
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.gauge_value("rate"), 42.25);
  EXPECT_EQ(snap.counter_value("n"), 7u);
  // Absent names read as zero (the telemetry cross-check convention).
  EXPECT_EQ(snap.counter_value("absent"), 0u);
  EXPECT_EQ(snap.gauge_value("absent"), 0.0);
  // Handles are find-or-create: same name, same storage.
  registry.counter("n").add(1);
  EXPECT_EQ(registry.snapshot().counter_value("n"), 8u);
}

TEST(ObsRegistry, DisabledRegistryRecordsNothing) {
  obs::Registry registry;
  obs::Counter counter = registry.counter("c");
  obs::Histogram histogram = registry.histogram("h");
  counter.add(5);
  histogram.observe(1.0);
  { obs::Span span = registry.span("s"); }
  EXPECT_EQ(registry.snapshot().counter_value("c"), 0u);
  EXPECT_EQ(registry.snapshot().histograms[0].count, 0u);
  EXPECT_EQ(registry.trace_event_count(), 0u);
  // Storage created while disabled records once enabled — handles can be
  // set up at startup, before any consumer arms the registry.
  registry.set_enabled(true);
  counter.add(5);
  EXPECT_EQ(registry.snapshot().counter_value("c"), 5u);
}

TEST(ObsRegistry, DisabledHotPathAllocatesNothing) {
  obs::Registry registry;  // disabled
  obs::Counter counter = registry.counter("c");
  obs::Gauge gauge = registry.gauge("g");
  obs::Histogram histogram = registry.histogram("h");

  const std::uint64_t before = test::t_allocations;
  for (int i = 0; i < 10000; ++i) {
    counter.add(1);
    gauge.set(1.0);
    histogram.observe(0.5);
    obs::Span span = registry.span("phase");
    span.finish();
    obs::ScopedTimer timer(registry, "phase");
    timer.stop();
  }
  EXPECT_EQ(test::t_allocations, before)
      << "disabled observability must be allocation-free on the hot path";
}

TEST(ObsTrace, SpansBecomeWellFormedCompleteEvents) {
  obs::Registry registry;
  registry.set_enabled(true);
  registry.set_tracing(true);
  {
    obs::Span outer = registry.span("campaign.range");
    obs::Span detail = registry.span("scheduler.run", "caft");
    registry.set_track_label(7, "worker-slot-7");
  }
  registry.complete_event("with \"quotes\" and \\slash", 1.0, 2.0, 3);
  ASSERT_EQ(registry.trace_event_count(), 4u);

  std::ostringstream out;
  registry.write_trace_json(out);
  const std::string json = out.str();

  // Structure: one top-level object, balanced braces/brackets outside
  // string literals (a cheap well-formedness proxy without a JSON lib).
  int braces = 0, brackets = 0;
  bool in_string = false, escaped = false;
  for (const char c : json) {
    if (escaped) { escaped = false; continue; }
    if (c == '\\') { escaped = true; continue; }
    if (c == '"') { in_string = !in_string; continue; }
    if (in_string) continue;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"campaign.range\""), std::string::npos);
  EXPECT_NE(json.find("\"scheduler.run:caft\""), std::string::npos);
  // Metadata event names the worker track.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"worker-slot-7\""), std::string::npos);
  // Special characters arrive escaped.
  EXPECT_NE(json.find("with \\\"quotes\\\" and \\\\slash"),
            std::string::npos);
  // Spans nest: the inner span's duration fits inside the outer's.
  EXPECT_LE(json.find("\"campaign.range\""),
            json.find("\"scheduler.run:caft\""));
}

TEST(ObsTrace, NoEventsWithoutTracingFlag) {
  obs::Registry registry;
  registry.set_enabled(true);  // metrics on, tracing off
  { obs::Span span = registry.span("invisible"); }
  registry.complete_event("invisible", 0.0, 1.0, 1);
  EXPECT_EQ(registry.trace_event_count(), 0u);
  // ...but ScopedTimer still feeds its histogram.
  { obs::ScopedTimer timer(registry, "phase"); }
  EXPECT_EQ(registry.snapshot().histograms.size(), 1u);
  EXPECT_EQ(registry.snapshot().histograms[0].count, 1u);
}

TEST(ObsMetricsJson, CarriesSchemaBuildAndSortedMetrics) {
  obs::Registry registry;
  registry.set_enabled(true);
  registry.counter("zeta").add(3);
  registry.counter("alpha").add(1);
  registry.gauge("replays_per_second").set(123.5);
  registry.histogram("wave.seconds", std::vector<double>{0.1, 1.0})
      .observe(0.5);

  std::ostringstream out;
  const caft::BuildInfo build{"abc123", "testcc 1.0", "Release"};
  registry.write_metrics_json(out, build);
  const std::string json = out.str();

  EXPECT_NE(json.find("\"schema\": \"caft-metrics/v1\""), std::string::npos);
  EXPECT_NE(json.find("\"git_sha\": \"abc123\""), std::string::npos);
  EXPECT_NE(json.find("\"compiler\": \"testcc 1.0\""), std::string::npos);
  EXPECT_NE(json.find("\"build_type\": \"Release\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"zeta\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"replays_per_second\": 123.5"), std::string::npos);
  // Inclusive upper bounds: 0.5 lands in the (0.1, 1.0] bucket.
  EXPECT_NE(json.find("\"counts\": [0, 1, 0]"), std::string::npos);
  // Deterministic output: names are sorted.
  EXPECT_LT(json.find("\"alpha\""), json.find("\"zeta\""));
}

TEST(ObsSpan, MoveTransfersRecordingResponsibility) {
  obs::Registry registry;
  registry.set_enabled(true);
  registry.set_tracing(true);
  {
    obs::Span a = registry.span("moved");
    obs::Span b = std::move(a);
    // `a` is inert after the move; only `b`'s destruction records.
  }
  EXPECT_EQ(registry.trace_event_count(), 1u);
}

}  // namespace
